// Time-bounded ScenarioFarm driving shared by the link and array
// workloads: the farm runs fixed-size chunks of tasks until the window
// has elapsed.  Chunk c is seeded with Rng::split(seed, c), so every
// task of every chunk is reproducible by farm::run_serial.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/ledger.hpp"
#include "perfbench/workloads.hpp"
#include "src/common/fnv.hpp"
#include "src/common/rng.hpp"
#include "src/farm/farm.hpp"

namespace perfbench {

/// Every chunk run so far, indexed by chunk number.  A digest of the
/// per-task results stands in for the results, so the log's size does
/// not grow with the trials.
struct ChunkLog {
  std::vector<std::uint64_t> digest;
  std::vector<bool> completed;  ///< false when the chunk threw
  std::vector<bool> traced;     ///< chunk ran with the traced kernel
};

[[nodiscard]] inline std::uint64_t digest(
    const std::vector<rsp::farm::TrialResult>& per_task) {
  rsp::Fnv1a h;
  for (const auto& r : per_task) {
    h.mix(r.bits).mix(r.bit_errors).mix(r.frames).mix(r.frame_errors);
  }
  return h.value();
}

[[nodiscard]] inline std::uint64_t chunk_seed(std::uint64_t seed,
                                              std::size_t chunk) {
  return rsp::Rng::split(seed, chunk);
}

/// Run chunks of @p chunk tasks until @p seconds have passed.  @p make
/// builds the kernel of chunk c (called on this thread); each task's
/// host time is recorded from inside the farm worker that ran it.  Task
/// i of a chunk is of kind i % @p kinds.
template <class MakeKernel>
Window run_farm_window(const rsp::farm::ScenarioFarm& farm, double seconds,
                       std::size_t chunk, std::size_t kinds, std::uint64_t seed,
                       bool traced, ChunkLog& log, Verdict& v, MakeKernel make) {
  Window w;
  w.threads = farm.threads();
  const auto t0 = Clock::now();
  do {
    const std::size_t c = log.digest.size();
    const rsp::farm::TrialKernel inner = make(c);
    std::vector<double> lat(chunk, 0.0);
    std::vector<double> cpu(chunk, 0.0);
    const rsp::farm::TrialKernel timed = [&](std::uint64_t s, std::size_t i) {
      const auto t = Clock::now();
      const double c0 = thread_cpu_s();
      auto r = inner(s, i);
      cpu[i] = thread_cpu_s() - c0;
      lat[i] = seconds_since(t);
      return r;
    };
    v.attempted += static_cast<long long>(chunk);
    try {
      const auto res = farm.run(chunk, chunk_seed(seed, c), timed);
      log.digest.push_back(digest(res.per_task));
      log.completed.push_back(true);
      w.frame_s.insert(w.frame_s.end(), lat.begin(), lat.end());
      w.frame_cpu_s.insert(w.frame_cpu_s.end(), cpu.begin(), cpu.end());
      for (std::size_t i = 0; i < chunk; ++i) {
        w.frame_kind.push_back(static_cast<std::uint16_t>(i % kinds));
      }
      w.frames += static_cast<long long>(chunk);
    } catch (const std::exception& e) {
      v.fail(static_cast<long long>(chunk),
             "chunk " + std::to_string(c) + " threw: " + e.what());
      log.digest.push_back(0);
      log.completed.push_back(false);
    }
    log.traced.push_back(traced);
  } while (seconds_since(t0) < seconds);
  w.wall_s = seconds_since(t0);
  return w;
}

/// farm.busy_s, farm.idle_frac and farm.tasks of the untraced window.
inline void farm_layer_metrics(const Totals& w, int workers,
                               std::vector<Metric>& out) {
  const double busy = w.busy_s;
  const Ratio idle_share{workers * w.wall_s - busy, workers * w.wall_s};
  out.push_back(Metric::of("farm.busy_s", busy, "s")
                    .with("wall_s", w.wall_s)
                    .with("workers", workers));
  out.push_back(Metric::of_ratio("farm.idle_frac", idle_share));
  out.push_back(
      Metric::of("farm.tasks", static_cast<double>(w.frames), "count"));
}

/// Seed-derived sample of @p k distinct chunk indices among those of
/// @p log that ran with (@p traced) or without tracing and completed.
[[nodiscard]] inline std::vector<std::size_t> sample_chunks(
    const ChunkLog& log, bool traced, std::size_t k, std::uint64_t seed) {
  std::vector<std::size_t> pool;
  for (std::size_t c = 0; c < log.digest.size(); ++c) {
    if (log.traced[c] == traced && log.completed[c]) pool.push_back(c);
  }
  rsp::Rng rng(seed);
  std::vector<std::size_t> out;
  while (!pool.empty() && out.size() < k) {
    const std::size_t j =
        rng.below(static_cast<std::uint32_t>(pool.size()));
    out.push_back(pool[j]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return out;
}

}  // namespace perfbench
