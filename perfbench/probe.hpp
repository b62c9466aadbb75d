// Host-speed probe of the perfbench harness.
//
// On a shared virtual machine the speed of the same code moves from run
// to run in two ways.  Other guests' load on the shared cores and caches
// slows stretches of it by up to 1.7x; KindTimes' low percentiles step
// around that.  And the whole host runs a few percent faster or slower
// for minutes at a time (clock frequency under the host's total load),
// which moves every frame alike, the fastest included.  The probe
// measures the second: a fixed loop that belongs to the harness and
// calls nothing in the library, whose fastest pass out of many tracks
// the clock and not the bursts of contention.  The end-to-end times are
// scaled to what they would read with the probe at kProbeRefS.  A
// change to the library moves the frames and not the probe.
//
// Changing the probe or kProbeRefS makes results before and after the
// change incomparable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "perfbench/ledger.hpp"

namespace perfbench {

/// Fastest probe pass, in thread CPU seconds, on an unloaded host of
/// the kind the benchmark was set up on (4-vCPU Xeon VM at 2.0 GHz,
/// gcc 12 -O2).
constexpr double kProbeRefS = 0.24e-3;

class HostProbe {
 public:
  HostProbe() : table_(kTableWords) {
    std::uint32_t s = 12345;
    for (auto& w : table_) {
      s = s * 1664525u + 1013904223u;
      w = s;
    }
  }

  /// Thread CPU seconds of one pass: a complex rotation and
  /// accumulation, as in the filters and transforms, then table-driven
  /// branches over a cache-resident table, as in the array interpreter.
  [[nodiscard]] double pass() {
    const double c0 = thread_cpu_s();
    double re = 0.1;
    double im = 0.2;
    double acc_re = 0.0;
    double acc_im = 0.0;
    for (int i = 0; i < 40000; ++i) {
      const double xr = re * 0.999 - im * 0.001;
      const double xi = re * 0.001 + im * 0.999;
      re = xr;
      im = xi;
      acc_re += re * xr - im * xi;
      acc_im += re * xi + im * xr;
    }
    std::uint32_t s = 1;
    std::uint64_t sum = 0;
    for (int i = 0; i < 60000; ++i) {
      s = s * 1664525u + 1013904223u;
      const std::uint32_t w = table_[(s >> 8) & (kTableWords - 1)];
      switch ((w ^ s) & 3u) {
        case 0: sum += w; break;
        case 1: sum ^= static_cast<std::uint64_t>(w) << 3; break;
        case 2: sum -= w >> 2; break;
        default: sum = sum * 3 + 1; break;
      }
    }
    sink_ = acc_re + acc_im + static_cast<double>(sum);
    return thread_cpu_s() - c0;
  }

  /// Fastest of @p passes passes on the calling thread.
  [[nodiscard]] double fastest(int passes) {
    double best = pass();
    for (int i = 1; i < passes; ++i) best = std::min(best, pass());
    return best;
  }

 private:
  static constexpr std::size_t kTableWords = std::size_t{1} << 14;  // 64 KiB

  std::vector<std::uint32_t> table_;
  volatile double sink_ = 0.0;
};

}  // namespace perfbench
