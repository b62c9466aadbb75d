// Unit tests of the perfbench ledger: the percentile rule, self-time
// arithmetic, ratio base counts, span recording across threads, the CPU
// clocks, the per-kind frame rate, and the report format (checked with
// the repository's JSON validator).
#include "perfbench/ledger.hpp"

#include <gtest/gtest.h>

#include "perfbench/workloads.hpp"

#include <clocale>
#include <string>
#include <thread>
#include <vector>

#include "tests/support/json_lite.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  // Descending, so the rule must sort before ranking.
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = ramp(10);
  EXPECT_EQ(percentile(v, 50).value, 5.0);
  EXPECT_EQ(percentile(v, 50).beyond, 5u);
  EXPECT_EQ(percentile(v, 91).value, 10.0);
  EXPECT_EQ(percentile(v, 100).beyond, 0u);
  EXPECT_EQ(percentile({}, 50).n, 0u);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  const Tail t = tail_percentile(ramp(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.n, 1000u);
}

TEST(Percentile, FallsBackToHighestPercentileWithTenBeyond) {
  // 999 samples: p99 leaves 9 beyond; p98 (rank 980) leaves 19.
  const Tail t999 = tail_percentile(ramp(999));
  EXPECT_EQ(t999.pct, 98);
  EXPECT_EQ(t999.beyond, 19u);
  EXPECT_EQ(t999.value, 980.0);
  // 100 samples: p90 is the highest with 10 beyond.
  const Tail t100 = tail_percentile(ramp(100));
  EXPECT_EQ(t100.pct, 90);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_EQ(t100.n, 100u);
}

TEST(Percentile, TooFewSamplesReportsTheMedianWithItsShortCount) {
  const Tail t = tail_percentile(ramp(15));
  EXPECT_EQ(t.pct, 50);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_EQ(t.n, 15u);
}

Span span(const char* name, std::int64_t a, std::int64_t b, int parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

TEST(SelfTime, NestedSpans) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),  // 0
      span("a", 10, 40, 0),      // 1
      span("a.inner", 20, 30, 1),
      span("b", 50, 70, 0),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTime, OverlappingChildrenAreNotSubtractedTwice) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("x", 10, 50, 0),
      span("y", 30, 80, 0),  // overlaps x over [30, 50)
      span("z", 80, 90, 0),  // touches y
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 80);  // union [10, 90)
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("late", 90, 120, 0),
      span("early", -5, 5, 0),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 10 - 5);
  EXPECT_EQ(self[1], 30);
}

TEST(SelfTime, FullyCoveredParentHasZeroSelf) {
  const std::vector<Span> spans = {span("root", 0, 10, -1),
                                   span("all", 0, 10, 0)};
  EXPECT_EQ(self_times(spans)[0], 0);
}

TEST(LedgerRecording, ScopesNestPerThreadAndFoldAcrossThreads) {
  Ledger& l = Ledger::instance();
  l.reset();
  l.set_enabled(true);
  const auto work = [](std::uint64_t id) {
    const Scope root("trial", id);
    {
      const Scope a("layer.a");
      const Scope b("layer.b");
      count("items", 3);
    }
  };
  std::thread t1(work, 1);
  std::thread t2(work, 2);
  t1.join();
  t2.join();
  l.set_enabled(false);
  {
    const Scope ignored("off");  // disabled: records nothing
    count("items", 100);
  }
  const auto logs = l.logs();
  ASSERT_EQ(logs.size(), 2u);
  for (const ThreadLog* log : logs) {
    ASSERT_EQ(log->spans.size(), 3u);
    EXPECT_EQ(log->spans[0].parent, -1);
    EXPECT_EQ(log->spans[1].parent, 0);
    EXPECT_EQ(log->spans[2].parent, 1);
    EXPECT_EQ(log->spans[2].trace, log->spans[0].trace);
    EXPECT_EQ(log->open, -1);
  }
  const Fold f = fold(logs);
  EXPECT_EQ(f.roots, 2);
  EXPECT_EQ(f.calls("layer.a"), 2);
  EXPECT_EQ(f.calls("off"), 0);
  EXPECT_EQ(f.counter("items"), 6);
  EXPECT_EQ(f.attributed_ns,
            f.layers.at("layer.a").dur_ns);  // a covers b
  const Fold::Layer& trial = f.layers.at("trial");
  EXPECT_EQ(trial.dur_ns - f.attributed_ns, trial.self_ns);
}

// The frame-CPU coverage check rests on this: work moved to another
// thread leaves the caller's clock and shows only in the process's.
TEST(CpuClocks, HelperThreadWorkShowsOnlyInTheProcessClock) {
  const double t0 = thread_cpu_s();
  const double p0 = process_cpu_s();
  std::thread([] {
    const double s = thread_cpu_s();
    while (thread_cpu_s() - s < 0.05) {
    }
  }).join();
  EXPECT_LT(thread_cpu_s() - t0, 0.01);
  EXPECT_GE(process_cpu_s() - p0, 0.05);
}

TEST(Ratio, CarriesItsBaseCounts) {
  const Metric m = Metric::of_ratio("x.hit_ratio", Ratio{3, 4});
  EXPECT_EQ(m.value, 0.75);
  EXPECT_EQ(m.json(true),
            "{\"value\": 0.75, \"unit\": \"ratio\", \"num\": 3, \"den\": 4}");
  EXPECT_EQ(m.json(false), "{\"value\": 0.75, \"unit\": \"ratio\"}");
  EXPECT_EQ((Ratio{5, 0}.value()), 0.0);
}

// Two kinds of frame; kind 0 takes 1 ms on an unslowed host and kind 1
// takes 3 ms, and most frames of each ran slowed.  Two frames (in the
// workload's unit) per sample, two threads.
Window two_kinds(std::size_t slow_of_20) {
  Window w;
  w.threads = 2;
  for (std::uint16_t kind = 0; kind < 2; ++kind) {
    const double fast = kind == 0 ? 1e-3 : 3e-3;
    for (std::size_t i = 0; i < 20; ++i) {
      w.frame_cpu_s.push_back(i < slow_of_20 ? 1.5 * fast : fast);
      w.frame_s.push_back(w.frame_cpu_s.back());
      w.frame_kind.push_back(kind);
      w.frames += 2;
    }
  }
  return w;
}

TEST(KindTimes, RateTakesEachKindsLowPercentileWithItsCounts) {
  KindTimes k;
  k.add(two_kinds(17));
  // Every frame at its kind's p10: mean 2 ms per sample, 2 frames per
  // sample, 2 threads.
  EXPECT_NEAR(k.kind_mean_s(10), 2e-3, 1e-15);
  const Metric m = k.rate("frames_per_s", 10);
  EXPECT_NEAR(m.value, 2000.0, 1e-9);
  EXPECT_NE(m.json(true).find("\"kinds\": 2"), std::string::npos);
  EXPECT_NE(m.json(true).find("\"samples\": 40"), std::string::npos);
  EXPECT_NE(m.json(true).find("\"threads\": 2"), std::string::npos);

  // The share of slowed frames moves the mean rate, not the p10 rate.
  KindTimes fewer_slow;
  fewer_slow.add(two_kinds(2));
  EXPECT_EQ(fewer_slow.rate("frames_per_s", 10).value, m.value);
  EXPECT_GT(fewer_slow.mean_rate("mean").value, k.mean_rate("mean").value);
}

TEST(Report, TailMetricCarriesPercentileAndCounts) {
  const Metric m =
      Metric::of_tail("frame_ms_p99", tail_percentile(ramp(999)), 1e3, "ms");
  EXPECT_EQ(m.value, 980000.0);
  EXPECT_NE(m.json(true).find("\"percentile\": 98"), std::string::npos);
  EXPECT_NE(m.json(true).find("\"samples\": 999"), std::string::npos);
  EXPECT_NE(m.json(true).find("\"beyond\": 19"), std::string::npos);
}

TEST(Report, ResultLineIsValidJsonWithExactlyTheContractKeys) {
  const std::vector<Metric> ms = {
      Metric::of("frames_per_s", 1234.5678901234, "1/s").with("frames", 10),
      Metric::of("setup_s", 0.0123, "s"),
      Metric::of_ratio("fail_frac", Ratio{0, 17}),
  };
  const std::string line = result_line(true, 17, 0, ms);
  EXPECT_TRUE(rsp::testing::json_valid(line)) << line;
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 17, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  // Base counts stay in the full report, out of the result line.
  EXPECT_EQ(line.find("frames\":"), std::string::npos);
  EXPECT_TRUE(rsp::testing::json_valid(metrics_json(ms, true)));
}

TEST(Report, NumbersAreLocaleIndependentAndFinite) {
  const char* prev = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = prev != nullptr ? prev : "C";
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    std::setlocale(LC_NUMERIC, "C");
  }
  const std::string s = metrics_json(
      {Metric::of("a", 1.5, "s"), Metric::of("b", 0.0 / 0.0, "s"),
       Metric::of("c", 1e-9, "s")},
      true);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_TRUE(rsp::testing::json_valid(s)) << s;
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_EQ(json_number(1.0 / 0.0), "0");
}

TEST(Report, StringsAreEscaped) {
  const std::string s = json_string("a\"b\\c\nd");
  EXPECT_EQ(s, "\"a\\\"b\\\\c\\u000ad\"");
  EXPECT_TRUE(rsp::testing::json_valid(s));
}

}  // namespace
}  // namespace perfbench
