// The perfbench workloads.  Each one sets itself up (timed, repeated by
// the caller), measures a window of frames with tracing off or on,
// checks its outputs against an oracle outside the timed region, and
// turns its spans and counters into per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/ledger.hpp"

namespace perfbench {

/// Worker counts used by every workload.  Each is capped at the host's
/// core count.
struct Workers {
  int farm = 2;  ///< ScenarioFarm threads (link and array workloads)
  /// FleetManager run_cycles threads.  One: run_cycles starts its pool
  /// threads afresh on every call, and at one call per 256-chip quantum
  /// two threads ran slower than one and swung with host scheduling
  /// (34k-69k against 84k-119k frames/s on a 4-vCPU VM).
  int fleet = 1;
};

/// One measured window.  Each trial, job or quantum runs on one thread,
/// so its thread's CPU time is the CPU time it took; the caller checks
/// that premise against the process's CPU time over the window.
struct Window {
  double wall_s = 0.0;
  long long frames = 0;             ///< frames in the workload's unit
  int threads = 1;                  ///< threads running frames side by side
  std::vector<double> frame_s;      ///< wall time of each trial, job or quantum
  std::vector<double> frame_cpu_s;  ///< its thread CPU time
  /// Its kind: frames of one kind do the same work (task slot of the
  /// rate or job cycle, or quantum phase of the churn cycle).
  std::vector<std::uint16_t> frame_kind;
};

/// Totals of one or more windows, without their samples.
struct Totals {
  double wall_s = 0.0;
  long long frames = 0;
  double busy_s = 0.0;      ///< summed frame times
  std::size_t samples = 0;  ///< frame times summed

  void add(const Window& w) {
    wall_s += w.wall_s;
    frames += w.frames;
    samples += w.frame_s.size();
    for (const double s : w.frame_s) busy_s += s;
  }
  [[nodiscard]] double rate() const {
    return wall_s > 0 ? static_cast<double>(frames) / wall_s : 0.0;
  }
  [[nodiscard]] double mean_frame_s() const {
    return samples > 0 ? busy_s / static_cast<double>(samples) : 0.0;
  }
};

/// Frame times of the untraced window by frame kind.  Frames of one kind
/// do the same work, so the spread of their CPU times is the host's: the
/// host is a VM that shares its cores and caches with other guests, and
/// for stretches of seconds to minutes its vCPUs run up to 1.7x slower,
/// in CPU time as well as in wall time.  A kind's low percentiles are
/// its frames on an unslowed host; its high ones, and the mean over all
/// frames, move with the share of the run the host was slowed.
struct KindTimes {
  std::map<std::uint16_t, std::vector<double>> cpu_s;
  std::map<std::uint16_t, std::vector<double>> wall_s;
  double frames = 0.0;   ///< in the workload's unit
  double samples = 0.0;  ///< frame times
  int threads = 1;

  void add(const Window& w) {
    for (std::size_t i = 0; i < w.frame_cpu_s.size(); ++i) {
      cpu_s[w.frame_kind[i]].push_back(w.frame_cpu_s[i]);
      wall_s[w.frame_kind[i]].push_back(w.frame_s[i]);
    }
    frames += static_cast<double>(w.frames);
    samples += static_cast<double>(w.frame_cpu_s.size());
    threads = w.threads;
  }

  /// Mean over all frames of their kind's @p pct percentile CPU time.
  [[nodiscard]] double kind_mean_s(int pct) const {
    double s = 0.0;
    for (const auto& [k, v] : cpu_s) {
      s += percentile(v, pct).value * static_cast<double>(v.size());
    }
    return samples > 0 ? s / samples : 0.0;
  }

  /// Frames per second of CPU time when every frame takes its kind's
  /// @p pct percentile, times the threads running frames side by side.
  [[nodiscard]] Metric rate(const char* name, int pct) const {
    const double t = kind_mean_s(pct);
    return Metric::of(name, t > 0 ? threads * frames / samples / t : 0.0, "1/s")
        .with("kind_percentile", pct)
        .with("kinds", static_cast<double>(cpu_s.size()))
        .with("samples", samples)
        .with("threads", threads);
  }

  /// Mean over all frames of their kind's @p pct percentile CPU time.
  [[nodiscard]] Metric ms(const char* name, int pct) const {
    return Metric::of(name, kind_mean_s(pct) * 1e3, "ms")
        .with("kind_percentile", pct)
        .with("kinds", static_cast<double>(cpu_s.size()))
        .with("samples", samples);
  }

  /// Frames per second of CPU time over all frames.
  [[nodiscard]] Metric mean_rate(const char* name) const {
    double total = 0.0;
    for (const auto& [k, v] : cpu_s) {
      for (const double c : v) total += c;
    }
    return Metric::of(name, total > 0 ? threads * frames / total : 0.0, "1/s")
        .with("frame_cpu_s", total)
        .with("samples", samples)
        .with("threads", threads);
  }

  /// Tail (tail_percentile) of all frame times of @p by_kind.
  [[nodiscard]] static Metric tail_ms(
      const char* name,
      const std::map<std::uint16_t, std::vector<double>>& by_kind) {
    std::vector<double> all;
    for (const auto& [k, v] : by_kind) all.insert(all.end(), v.begin(), v.end());
    const Tail t = tail_percentile(all);
    return Metric::of(name, t.value * 1e3, "ms")
        .with("percentile", t.pct)
        .with("samples", static_cast<double>(t.n))
        .with("beyond", static_cast<double>(t.beyond));
  }
};

/// Operations attempted and failed (thrown, or mismatched an oracle),
/// plus a line per failure for the report.
struct Verdict {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;

  void fail(long long n, std::string why) {
    failed += n;
    problems.push_back(std::move(why));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything a user pays before the first frame.  Called once per
  /// instance, and timed.
  virtual void setup() = 0;

  /// Oracle preparation (goldens of the generated inputs), after set-up
  /// and outside set-up time.
  virtual void prepare_oracle() {}

  /// Run frames for about @p seconds.  With @p traced the ledger is
  /// recording and the workload opens its layer spans.
  virtual Window measure(double seconds, bool traced, Verdict& v) = 0;

  /// Oracles over everything measured so far.
  virtual void check(Verdict& v) = 0;

  /// Per-layer metrics from the traced slices' spans, plus counters the
  /// workload read from the library and figures of the untraced
  /// window.  Metrics of layers this workload never touches are left
  /// out (the caller reports them 0).
  virtual void layers(const Fold& spans, const Totals& untraced,
                      std::vector<Metric>& out) = 0;

  /// Extra end-to-end figures for the report (not in the result line).
  virtual void extras(std::vector<Metric>& /*out*/) {}

  /// Workload parameters for the report, as JSON members.
  [[nodiscard]] virtual std::string params_json() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_rake_link(std::uint64_t seed,
                                                       const Workers& w);
[[nodiscard]] std::unique_ptr<Workload> make_wlan_link(std::uint64_t seed,
                                                       const Workers& w);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_serve(std::uint64_t seed,
                                                         const Workers& w);
[[nodiscard]] std::unique_ptr<Workload> make_array_kernels(std::uint64_t seed,
                                                           const Workers& w);

}  // namespace perfbench
