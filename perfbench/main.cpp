// perfbench: the end-to-end benchmark of the reconfigurable-SDR library.
//
//   perfbench --workload <rake_link|wlan_link|fleet_serve|array_kernels>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//   perfbench --workload <name> --seed <n> --setup-only
//
// The process sets the workload up once, cold, runs an untimed warm-up
// and measures an untraced window in segments, each on its own group of
// CPUs.  Between segments it starts fresh copies of itself with
// --setup-only, each of which sets the workload up once, prints the
// seconds that took and exits: setup_s is the median of all these cold
// set-ups, spread over the run like the frames are, and the measuring
// process holds only its own instance, so its peak memory is the
// workload's.  After each segment the host-speed probe (probe.hpp) runs
// on the segment's CPUs.  With --trace 1 a traced phase of a quarter of
// the window's length follows.  Last, the workload's oracles run.  It
// prints the full report (host block, parameters, every metric with its
// base counts) as one JSON line, then one "# name = value unit" line per
// metric, and last the result line: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.  Exit status 0 only when every
// oracle passed.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perfbench/ledger.hpp"
#include "perfbench/probe.hpp"
#include "perfbench/workloads.hpp"
#include "src/phy/simd_phy.hpp"
#include "src/xpp/simd.hpp"
#include "tests/support/json_lite.hpp"

namespace perfbench {
namespace {

/// Untraced window segments.  Segment k runs its frame threads on the
/// k-th group of CPUs in turn, so with 32 segments each of up to 4 CPUs
/// carries the same share of the window (see segment_cpus), and the
/// set-ups between segments sample the host at 32 moments of the run.
constexpr int kSegments = 32;
/// Untimed frames before the first segment.
constexpr double kWarmupSeconds = 0.5;
/// Frame CPU times must add up to at least this share of the process's
/// CPU time in every segment.  Below it, work ran on threads outside
/// the frames (helpers, pools) and frame CPU times would read too low.
constexpr double kMinCpuCoverage = 0.9;
/// Fresh-process set-ups before each segment.
constexpr int kSetupsPerSegment = 3;
/// Probe passes on each of a segment's CPUs after it; the fastest counts.
constexpr int kProbePasses = 24;
/// The traced phase lasts this share of --seconds: slices with the
/// ledger recording alternate with untraced slices, so the spans and
/// their untraced reference see the same host load.
constexpr double kTraceShare = 0.25;
constexpr double kSliceSeconds = 0.25;
/// Spans written to the --spans file at most (the fold uses them all).
constexpr std::size_t kMaxSpansWritten = 200000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<rake_link|wlan_link|fleet_serve|array_kernels> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n"
               "       perfbench --workload <name> --seed <n> --setup-only\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (k == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (k == "--spans") {
      a.spans_path = val;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

struct Name {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of the traced run, in BENCHMARK.json order.  A
/// workload that never touches a layer reports it as 0.
constexpr Name kPerLayer[] = {
    {"phy.umts_tx.self_s", "s/frame"},
    {"phy.channel.self_s", "s/frame"},
    {"phy.chips", "count/frame"},
    {"phy.ofdm_tx.self_s", "s/frame"},
    {"phy.awgn.self_s", "s/frame"},
    {"rake.acquire.self_s", "s/frame"},
    {"rake.receive.self_s", "s/frame"},
    {"rake.fingers", "count/frame"},
    {"rake.symbols", "count/frame"},
    {"ofdm.sync.self_s", "s/frame"},
    {"ofdm.chan_est.self_s", "s/frame"},
    {"ofdm.fft.self_s", "s/frame"},
    {"ofdm.equalize.self_s", "s/frame"},
    {"phy.demap.self_s", "s/frame"},
    {"dedhw.viterbi.self_s", "s/frame"},
    {"dedhw.viterbi.steps", "count/frame"},
    {"dedhw.depuncture.self_s", "s/frame"},
    {"dedhw.wlan_descramble.self_s", "s/frame"},
    {"farm.busy_s", "s"},
    {"farm.idle_frac", "ratio"},
    {"farm.tasks", "count"},
    {"fleet.admit.self_s", "s/call"},
    {"fleet.admits", "count"},
    {"fleet.cache_hit_ratio", "ratio"},
    {"fleet.reconfigure.self_s", "s/call"},
    {"fleet.reconfigures", "count"},
    {"fleet.evict.self_s", "s/call"},
    {"fleet.run_cycles.self_s", "s/frame"},
    {"fleet.ns_per_session_cycle", "ns"},
    {"fleet.io.self_s", "s/frame"},
    {"admit_us_p50", "us"},
    {"admit_us_p99", "us"},
    {"reconfig_us_p50", "us"},
    {"reconfig_us_p99", "us"},
    {"xpp.batch.batched_frac", "ratio"},
    {"xpp.batch.guard_exits", "count"},
    {"xpp.batch.gathers", "count"},
    {"xpp.cache.hit_ratio", "ratio"},
    {"xpp.compiled.compiles", "count"},
    {"xpp.compiled.replay_frac", "ratio"},
    {"xpp.compiled.compile_refusals", "count"},
    {"xpp.compiled.deopts", "count"},
    {"rake.maps.descrambler.self_s", "s/job"},
    {"rake.maps.descrambler.cycles", "cycles/job"},
    {"rake.maps.descrambler.load_cycles", "cycles/job"},
    {"rake.maps.descrambler.ns_per_cycle", "ns"},
    {"rake.maps.despreader.self_s", "s/job"},
    {"rake.maps.despreader.cycles", "cycles/job"},
    {"rake.maps.despreader.load_cycles", "cycles/job"},
    {"rake.maps.despreader.ns_per_cycle", "ns"},
    {"ofdm.maps.fft64.self_s", "s/job"},
    {"ofdm.maps.fft64.cycles", "cycles/job"},
    {"ofdm.maps.fft64.load_cycles", "cycles/job"},
    {"ofdm.maps.fft64.ns_per_cycle", "ns"},
    {"vit.acs.self_s", "s/job"},
    {"vit.acs.cycles", "cycles/job"},
    {"vit.acs.load_cycles", "cycles/job"},
    {"vit.acs.ns_per_cycle", "ns"},
    {"chan.channelizer.self_s", "s/job"},
    {"chan.channelizer.cycles", "cycles/job"},
    {"chan.channelizer.load_cycles", "cycles/job"},
    {"chan.channelizer.ns_per_cycle", "ns"},
    {"sim_cycles", "cycles/job"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::unique_ptr<Workload> make_workload(const Args& a, const Workers& w) {
  if (a.workload == "rake_link") return make_rake_link(a.seed, w);
  if (a.workload == "wlan_link") return make_wlan_link(a.seed, w);
  if (a.workload == "fleet_serve") return make_fleet_serve(a.seed, w);
  if (a.workload == "array_kernels") return make_array_kernels(a.seed, w);
  usage(("unknown workload " + a.workload).c_str());
}

std::string env_json(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "null" : json_string(v);
}

/// Everything a result depends on besides the code: two results whose
/// host blocks differ are not comparable.
std::string host_json(const Workers& w) {
#if defined(__clang__)
  const char* compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#if defined(__x86_64__)
  const char* arch = "x86_64";
#elif defined(__aarch64__)
  const char* arch = "aarch64";
#else
  const char* arch = "unknown";
#endif
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  return std::string("{\"compiler\": ") + json_string(compiler) +
         ", \"arch\": " + json_string(arch) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"asserts\": " + json_string(asserts) +
         ", \"xpp_simd\": " + json_string(rsp::xpp::simd::isa_name()) +
         ", \"phy_simd\": " + json_string(rsp::phy::simd::phy_isa_name()) +
         ", \"env\": {\"RSP_SIMD\": " + env_json("RSP_SIMD") +
         ", \"RSP_PHY_BATCH\": " + env_json("RSP_PHY_BATCH") +
         "}, \"workers\": {\"farm\": " + std::to_string(w.farm) +
         ", \"fleet\": " + std::to_string(w.fleet) + "}}";
}

/// Peak resident set of this program.  VmHWM, not getrusage: Linux
/// carries ru_maxrss across exec, so that would report the launching
/// process's peak when it is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Set-up seconds of the workload in a fresh process: this program run
/// with --setup-only.  Nothing the library builds lazily is left over
/// from an earlier set-up, as for a user starting the workload.
double fresh_setup_s(const Args& a) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fd[0]);
  posix_spawn_file_actions_addclose(&fa, fd[1]);
  std::string self = "/proc/self/exe";
  std::string workload_flag = "--workload";
  std::string workload = a.workload;
  std::string seed_flag = "--seed";
  std::string seed = std::to_string(a.seed);
  std::string only = "--setup-only";
  char* argv[] = {self.data(), workload_flag.data(), workload.data(),
                  seed_flag.data(), seed.data(), only.data(), nullptr};
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, self.c_str(), &fa, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fd[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fd[0], buf, sizeof(buf))) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fd[0]);
  if (rc != 0) throw std::runtime_error("cannot start the set-up process");
  int status = 0;
  const pid_t waited = waitpid(pid, &status, 0);
  if (waited != pid) {
    throw std::runtime_error("waiting for the set-up process failed: " +
                             std::string(std::strerror(errno)));
  }
  if (WIFSIGNALED(status)) {
    throw std::runtime_error("set-up process killed by signal " +
                             std::to_string(WTERMSIG(status)) +
                             ", output: " + out);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process exited with " +
                             std::to_string(WEXITSTATUS(status)) +
                             ", output: " + out);
  }
  char* end = nullptr;
  const double s = std::strtod(out.c_str(), &end);
  if (end == out.c_str() || !(s > 0.0)) {
    throw std::runtime_error("set-up process printed no time: " + out);
  }
  return s;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread, and the threads it starts from now on
/// (farm workers), to @p cpus.
void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// The CPUs that run the frames of segment @p seg on @p threads threads:
/// @p threads consecutive ones of @p cpus starting at the seg-th.  Other
/// guests of a shared host can slow one vCPU at a time, for seconds to
/// minutes; a thread the scheduler leaves on one vCPU for a whole run
/// would read that vCPU's state, so the window visits each in turn.
std::vector<int> segment_cpus(const std::vector<int>& cpus, int threads,
                              int seg) {
  std::vector<int> mine;
  const std::size_t n = std::min(cpus.size(), static_cast<std::size_t>(threads));
  for (std::size_t j = 0; j < n; ++j) {
    mine.push_back(cpus[(static_cast<std::size_t>(seg) + j) % cpus.size()]);
  }
  return mine;
}

Metric setup_median(const char* name, const std::vector<double>& setup_s) {
  return Metric::of(name, percentile(setup_s, 50).value, "s")
      .with("fresh_processes", static_cast<double>(setup_s.size()))
      .with("min", *std::min_element(setup_s.begin(), setup_s.end()))
      .with("max", *std::max_element(setup_s.begin(), setup_s.end()));
}

/// The end-to-end figures (see KindTimes), scaled to the reference host
/// speed by @p probe_s, the median over segments of the fastest probe
/// pass (see probe.hpp):
///   - frames_per_s: frames per CPU second, every frame at its kind's
///     10th-percentile CPU time, times the threads: the throughput the
///     workload sustains on an unslowed host;
///   - setup_s: the median of the fresh-process set-ups.
/// Each frame is one closed-loop trial, job or quantum on one thread, so
/// its latency is its CPU time and moves with frames_per_s.  The frame
/// time median and tail, the mean rate and the wall-clock figures move
/// with other guests' load by more than a regression bound, so they are
/// report extras, as are the unscaled figures.
std::vector<Metric> end_to_end(const KindTimes& k,
                               const std::vector<double>& setup_s,
                               double probe_s) {
  const double slow = probe_s / kProbeRefS;
  std::vector<Metric> m;
  Metric rate = k.rate("frames_per_s", 10);
  rate.value *= slow;
  m.push_back(rate.with("host_slowdown", slow));
  Metric setup = setup_median("setup_s", setup_s);
  setup.value /= slow;
  m.push_back(setup.with("host_slowdown", slow));
  m.push_back(Metric::of("peak_rss_mb", peak_rss_mb(), "MB"));
  return m;
}

/// The traced run's metrics in kPerLayer order; names a workload did
/// not report are 0.  @p u is the untraced window, @p t the traced
/// slices and @p ut the untraced slices interleaved with them.  Throws
/// on a name or unit outside the table.
std::vector<Metric> per_layer(Workload& wl, const Fold& f, const Totals& u,
                              const Totals& t, const Totals& ut) {
  std::vector<Metric> got;
  wl.layers(f, u, got);

  const double untraced_s = ut.mean_frame_s();
  const double attributed_s =
      static_cast<double>(f.attributed_ns) * 1e-9 /
      static_cast<double>(std::max<long long>(1, f.roots));
  got.push_back(Metric::of("trace.unattributed_frac",
                           untraced_s > 0
                               ? (untraced_s - attributed_s) / untraced_s
                               : 0.0,
                           "ratio")
                    .with("untraced_frame_s", untraced_s)
                    .with("spans_per_frame_s", attributed_s)
                    .with("traced_frames", static_cast<double>(f.roots)));
  const double fps_u = ut.rate();
  const double fps_t = t.rate();
  got.push_back(Metric::of("trace.overhead_frac",
                           fps_t > 0 ? fps_u / fps_t - 1.0 : 0.0, "ratio")
                    .with("untraced_frames_per_s", fps_u)
                    .with("traced_frames_per_s", fps_t));

  std::map<std::string, Metric> by_name;
  for (auto& m : got) {
    const std::string n = m.name;
    if (!by_name.emplace(n, std::move(m)).second) {
      throw std::logic_error("per-layer metric reported twice: " + n);
    }
  }
  std::vector<Metric> out;
  for (const Name& n : kPerLayer) {
    const auto it = by_name.find(n.name);
    if (it == by_name.end()) {
      out.push_back(Metric::of(n.name, 0.0, n.unit));
      continue;
    }
    if (it->second.unit != n.unit) {
      throw std::logic_error(std::string("per-layer metric ") + n.name +
                             " has unit " + it->second.unit + ", expected " +
                             n.unit);
    }
    out.push_back(std::move(it->second));
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::logic_error("per-layer metric not in the table: " +
                           by_name.begin()->first);
  }
  return out;
}

void write_spans(const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  os << "{\"traceEvents\": [";
  std::size_t written = 0;
  int tid = 0;
  for (const ThreadLog* log : Ledger::instance().logs()) {
    for (const Span& s : log->spans) {
      if (written == kMaxSpansWritten) break;
      os << (written ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
         << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
         << ", \"ts\": " << json_number(static_cast<double>(s.start_ns) * 1e-3)
         << ", \"dur\": "
         << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
         << ", \"args\": {\"trace\": " << s.trace << "}}";
      ++written;
    }
    ++tid;
  }
  os << "\n]}\n";
}

void print_metrics(const char* section, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("# %s %s = %s %s", section, m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
    for (const auto& [k, v] : m.base) {
      std::printf(" %s=%s", k.c_str(), json_number(v).c_str());
    }
    std::printf("\n");
  }
}

int run(const Args& a) {
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Workers workers;
  workers.farm = std::min(workers.farm, nproc);
  workers.fleet = std::min(workers.fleet, nproc);

  auto wl = make_workload(a, workers);
  const auto t0 = Clock::now();
  wl->setup();
  const double own_setup_s = seconds_since(t0);
  if (a.setup_only) {
    std::printf("%s\n", json_number(own_setup_s).c_str());
    return 0;
  }
  wl->prepare_oracle();

  Verdict v;
  const int threads = wl->measure(kWarmupSeconds, false, v).threads;
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;  // fresh-process set-ups
  Totals u;
  KindTimes kinds;
  HostProbe probe;
  std::vector<double> probe_s;  // per segment: mean over its CPUs
  double min_coverage = 1.0;
  for (int seg = 0; seg < kSegments; ++seg) {
    for (int i = 0; i < kSetupsPerSegment; ++i) setup_s.push_back(fresh_setup_s(a));
    const std::vector<int> mine = segment_cpus(cpus, threads, seg);
    pin(mine);
    const double p0 = process_cpu_s();
    const Window w = wl->measure(a.seconds / kSegments, false, v);
    const double process_s = process_cpu_s() - p0;
    double fastest = 0.0;
    for (const int c : mine) {
      pin({c});
      fastest += probe.fastest(kProbePasses);
    }
    probe_s.push_back(fastest / static_cast<double>(mine.size()));
    pin(cpus);
    u.add(w);
    kinds.add(w);
    double frame_cpu_s = 0.0;
    for (const double c : w.frame_cpu_s) frame_cpu_s += c;
    const double coverage = process_s > 0 ? frame_cpu_s / process_s : 0.0;
    min_coverage = std::min(min_coverage, coverage);
    if (coverage < kMinCpuCoverage) {
      v.problems.push_back(
          "segment " + std::to_string(seg) + ": frame CPU times cover " +
          json_number(coverage) + " of the process's CPU time (minimum " +
          json_number(kMinCpuCoverage) + "); frame work ran off its thread");
    }
  }
  Totals t;   // traced slices
  Totals ut;  // the untraced slices between them
  Fold f;
  if (a.trace) {
    Ledger& ledger = Ledger::instance();
    ledger.reset();
    const auto tt = Clock::now();
    while (seconds_since(tt) < a.seconds * kTraceShare) {
      ledger.set_enabled(true);
      t.add(wl->measure(kSliceSeconds, true, v));
      ledger.set_enabled(false);
      ut.add(wl->measure(kSliceSeconds, false, v));
    }
    f = fold(ledger.logs());
  }
  wl->check(v);

  const double run_probe_s = percentile(probe_s, 50).value;
  const std::vector<Metric> e2e = end_to_end(kinds, setup_s, run_probe_s);
  std::vector<Metric> extras;
  extras.push_back(Metric::of("host_probe_ms", run_probe_s * 1e3, "ms")
                       .with("reference_ms", kProbeRefS * 1e3)
                       .with("min_ms", *std::min_element(probe_s.begin(), probe_s.end()) * 1e3)
                       .with("max_ms", *std::max_element(probe_s.begin(), probe_s.end()) * 1e3));
  extras.push_back(kinds.rate("frames_per_s_unscaled", 10));
  extras.push_back(setup_median("setup_s_unscaled", setup_s));
  extras.push_back(kinds.mean_rate("frames_per_cpu_s_mean"));
  extras.push_back(kinds.ms("frame_ms_p50", 50));
  extras.push_back(KindTimes::tail_ms("frame_ms_p99", kinds.cpu_s));
  extras.push_back(Metric::of("setup_s_in_process", own_setup_s, "s"));
  extras.push_back(Metric::of("frames_per_wall_s", u.rate(), "1/s")
                       .with("frames", static_cast<double>(u.frames))
                       .with("wall_s", u.wall_s));
  extras.push_back(Metric::of("frame_cpu_coverage", min_coverage, "ratio")
                       .with("minimum", kMinCpuCoverage)
                       .with("segments", kSegments));
  extras.push_back(KindTimes::tail_ms("frame_wall_ms_p99", kinds.wall_s));
  extras.push_back(Metric::of_ratio(
      "fail_frac", Ratio{static_cast<double>(v.failed),
                         static_cast<double>(v.attempted)}));
  wl->extras(extras);
  std::vector<Metric> layers;
  if (a.trace) layers = per_layer(*wl, f, u, t, ut);
  const bool correct = v.failed == 0 && v.problems.empty() && v.attempted > 0;

  std::string problems = "[";
  for (std::size_t i = 0; i < v.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(v.problems[i]);
  }
  problems += "]";
  std::string setups = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i ? ", " : "") + json_number(setup_s[i]);
  }
  setups += "]";
  const std::string report =
      "{\"report\": \"perfbench\", \"workload\": " + json_string(a.workload) +
      ", \"seed\": " + std::to_string(a.seed) +
      ", \"seconds\": " + json_number(a.seconds) +
      ", \"trace\": " + (a.trace ? "true" : "false") +
      ", \"host\": " + host_json(workers) + ", \"params\": {" +
      wl->params_json() + "}, \"setup_s_reps\": " + setups +
      ", \"end_to_end\": " + metrics_json(e2e, true) +
      ", \"extras\": " + metrics_json(extras, true) +
      ", \"per_layer\": " + metrics_json(layers, true) +
      ", \"attempted\": " + std::to_string(v.attempted) +
      ", \"failed\": " + std::to_string(v.failed) +
      ", \"problems\": " + problems + ", \"correct\": " +
      (correct ? "true" : "false") + "}";
  const std::string result =
      result_line(correct, v.attempted, v.failed, a.trace ? layers : e2e);
  if (!rsp::testing::json_valid(report) || !rsp::testing::json_valid(result)) {
    std::fprintf(stderr, "perfbench: internal error, report is not valid JSON\n");
    return 3;
  }
  if (a.trace && !a.spans_path.empty()) write_spans(a.spans_path);

  std::printf("%s\n", report.c_str());
  print_metrics("end_to_end", e2e);
  print_metrics("extra", extras);
  print_metrics("per_layer", layers);
  for (const std::string& p : v.problems) {
    std::printf("# FAILED %s\n", p.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
