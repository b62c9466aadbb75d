// Span ledger and report arithmetic of the perfbench harness.
//
// Spans are recorded only by the harness, around its own calls into the
// library's public functions.  Each thread appends to a private buffer
// (no lock on the hot path); buffers live until the next reset() so a
// run can fold them into per-layer self times and write them out after
// the measured window has closed.  With the ledger disabled a Scope
// costs one relaxed atomic load.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread.  Time the thread spent waiting for a
/// CPU is not in it, so a frame's CPU time does not move with the load
/// of a shared host.
[[nodiscard]] inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the whole process, every thread included.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One recorded interval.  @p parent indexes the same per-thread span
/// vector (-1 for a root); @p trace is the id of the trial, job or
/// quantum the span belongs to.  Names are string literals.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t trace = 0;
};

/// Self time of every span in @p spans: its duration minus the part of
/// its interval covered by its children.  Children are clipped to the
/// parent's interval and merged first, so overlapping children are not
/// subtracted twice and self time is never negative.
[[nodiscard]] inline std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].push_back({a, b});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns -
                                            covered);
  }
  return self;
}

/// Spans and counters of one thread.
struct ThreadLog {
  std::vector<Span> spans;
  int open = -1;  ///< innermost open span, -1 when none
  std::map<std::string, long long> counts;
};

/// Process-wide span store.  reset() starts a fresh recording (call it
/// while disabled); set_enabled() pauses and resumes it.  Toggle either
/// only while no recorded work is running.
class Ledger {
 public:
  static Ledger& instance() {
    static Ledger l;
    return l;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.clear();
    gen_.fetch_add(1, std::memory_order_acq_rel);
  }

  void set_enabled(bool on) { on_.store(on, std::memory_order_release); }

  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }

  /// This thread's buffer in the current recording, or nullptr while
  /// disabled.
  ThreadLog* local() {
    if (!enabled()) return nullptr;
    thread_local ThreadLog* log = nullptr;
    thread_local std::uint64_t log_gen = 0;
    const std::uint64_t g = gen_.load(std::memory_order_acquire);
    if (log == nullptr || log_gen != g) {
      const std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log_gen = g;
    }
    return log;
  }

  /// Buffers of the current recording (read while disabled).
  [[nodiscard]] std::vector<const ThreadLog*> logs() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<const ThreadLog*> out;
    for (const auto& l : logs_) out.push_back(l.get());
    return out;
  }

 private:
  Ledger() = default;
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> gen_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span.  A root scope names its trace id; a nested scope inherits
/// the id of the span it opens under.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t trace = 0)
      : log_(Ledger::instance().local()) {
    if (log_ == nullptr) return;
    Span s;
    s.name = name;
    s.parent = log_->open;
    s.trace = s.parent >= 0
                  ? log_->spans[static_cast<std::size_t>(s.parent)].trace
                  : trace;
    index_ = static_cast<int>(log_->spans.size());
    log_->open = index_;
    s.start_ns = now_ns();
    log_->spans.push_back(s);
  }
  ~Scope() {
    if (log_ == nullptr) return;
    Span& s = log_->spans[static_cast<std::size_t>(index_)];
    s.end_ns = now_ns();
    log_->open = s.parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadLog* log_ = nullptr;
  int index_ = -1;
};

/// Add @p n to counter @p name of the current recording (no-op while
/// disabled).
inline void count(const char* name, long long n) {
  if (ThreadLog* log = Ledger::instance().local()) log->counts[name] += n;
}

/// Per-name totals over every thread of a recording.
struct Fold {
  struct Layer {
    long long calls = 0;
    std::int64_t self_ns = 0;
    std::int64_t dur_ns = 0;
  };
  std::map<std::string, Layer> layers;
  std::map<std::string, long long> counts;
  long long roots = 0;             ///< root spans: traced frames
  std::int64_t attributed_ns = 0;  ///< summed self time of non-root spans

  [[nodiscard]] double self_s(const std::string& name) const {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns) * 1e-9;
  }
  [[nodiscard]] long long calls(const std::string& name) const {
    const auto it = layers.find(name);
    return it == layers.end() ? 0 : it->second.calls;
  }
  [[nodiscard]] long long counter(const std::string& name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
  }
};

[[nodiscard]] inline Fold fold(const std::vector<const ThreadLog*>& logs) {
  Fold f;
  for (const ThreadLog* log : logs) {
    const auto self = self_times(log->spans);
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      auto& l = f.layers[s.name];
      ++l.calls;
      l.self_ns += self[i];
      l.dur_ns += s.end_ns - s.start_ns;
      if (s.parent < 0) {
        ++f.roots;
      } else {
        f.attributed_ns += self[i];
      }
    }
    for (const auto& [name, n] : log->counts) f.counts[name] += n;
  }
  return f;
}

/// A tail statistic: the value at percentile @p pct (nearest rank), the
/// number of samples strictly beyond it, and the sample count.
struct Tail {
  int pct = 0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t n = 0;
};

/// Nearest-rank percentile @p pct (1..100) of @p v.
[[nodiscard]] inline Tail percentile(std::vector<double> v, int pct) {
  Tail t;
  t.pct = pct;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  t.value = v[rank - 1];
  t.beyond = n - rank;
  return t;
}

/// The highest integer percentile in [50, @p max_pct] that leaves at
/// least @p min_beyond samples beyond it.  With too few samples for any
/// of them the median is returned, its short `beyond` count showing why.
[[nodiscard]] inline Tail tail_percentile(const std::vector<double>& v,
                                          int max_pct = 99,
                                          std::size_t min_beyond = 10) {
  for (int p = max_pct; p >= 50; --p) {
    const std::size_t n = v.size();
    const std::size_t rank =
        std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
    if (n >= rank && n - rank >= min_beyond) return percentile(v, p);
  }
  return percentile(v, 50);
}

/// A ratio that keeps its base counts, so a report can show what it was
/// measured over.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  [[nodiscard]] double value() const { return den > 0.0 ? num / den : 0.0; }
};

/// Locale-independent shortest round-trip JSON number; non-finite
/// values (which JSON cannot carry) become 0.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      static constexpr char kHex[] = "0123456789abcdef";
      buf[0] = '\\';
      buf[1] = 'u';
      buf[2] = '0';
      buf[3] = '0';
      buf[4] = kHex[(c >> 4) & 0xF];
      buf[5] = kHex[c & 0xF];
      out.append(buf, 6);
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// One named metric with its unit and the counts it rests on (sample
/// count, percentile, numerator/denominator of a ratio).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::vector<std::pair<std::string, double>> base;

  static Metric of(std::string name, double value, std::string unit) {
    return Metric{std::move(name), value, std::move(unit), {}};
  }
  static Metric of_ratio(std::string name, const Ratio& r) {
    return Metric{std::move(name), r.value(), "ratio",
                  {{"num", r.num}, {"den", r.den}}};
  }
  static Metric of_tail(std::string name, const Tail& t, double scale,
                        std::string unit) {
    return Metric{std::move(name),
                  t.value * scale,
                  std::move(unit),
                  {{"percentile", static_cast<double>(t.pct)},
                   {"samples", static_cast<double>(t.n)},
                   {"beyond", static_cast<double>(t.beyond)}}};
  }
  Metric& with(std::string key, double v) {
    base.emplace_back(std::move(key), v);
    return *this;
  }

  /// {"value": v, "unit": u} plus the base counts when @p full.
  [[nodiscard]] std::string json(bool full) const {
    std::string s = "{\"value\": " + json_number(value) +
                    ", \"unit\": " + json_string(unit);
    if (full) {
      for (const auto& [k, v] : base) {
        s += ", " + json_string(k) + ": " + json_number(v);
      }
    }
    return s + "}";
  }
};

/// Self time of span @p layer per root span (trial, job or quantum) of
/// a recording, as metric "<layer>.self_s".
[[nodiscard]] inline Metric self_per_frame(const Fold& f,
                                           const std::string& layer) {
  const double frames = static_cast<double>(std::max<long long>(1, f.roots));
  return Metric::of(layer + ".self_s", f.self_s(layer) / frames, "s/frame")
      .with("calls", static_cast<double>(f.calls(layer)))
      .with("frames", static_cast<double>(f.roots));
}

/// Self time of span @p layer per call of it, as "<layer>.self_s".
[[nodiscard]] inline Metric self_per_call(const Fold& f,
                                          const std::string& layer) {
  const double calls =
      static_cast<double>(std::max<long long>(1, f.calls(layer)));
  return Metric::of(layer + ".self_s", f.self_s(layer) / calls, "s/call")
      .with("calls", static_cast<double>(f.calls(layer)));
}

/// Counter @p name per root span of a recording.
[[nodiscard]] inline Metric count_per_frame(const Fold& f,
                                            const std::string& name) {
  const double frames = static_cast<double>(std::max<long long>(1, f.roots));
  return Metric::of(name, static_cast<double>(f.counter(name)) / frames,
                    "count/frame")
      .with("total", static_cast<double>(f.counter(name)))
      .with("frames", static_cast<double>(f.roots));
}

/// {"name": {...}, ...} over @p metrics in order.
[[nodiscard]] inline std::string metrics_json(const std::vector<Metric>& metrics,
                                              bool full) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(metrics[i].name) + ": " + metrics[i].json(full);
  }
  return s + "}";
}

/// The result line the benchmark prints last: exactly the keys
/// correct, attempted, failed and metrics (value and unit only).
[[nodiscard]] inline std::string result_line(bool correct, long long attempted,
                                             long long failed,
                                             const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json(metrics, false) + "}";
}

}  // namespace perfbench
