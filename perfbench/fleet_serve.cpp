// fleet_serve: a FleetManager serving 64 sessions in a closed loop.
//
// One serving thread runs frame quanta back to back: churn (one session
// reconfigured to the other configuration every quantum, alternating
// direction; every 4th quantum one session evicted and a replacement
// with the same configuration admitted), then 256
// chips fed to every session, run_cycles(256), and every session's
// output taken.  Sessions are split evenly between the rake descrambler
// and the SF-16 despreader, against a program cache warmed in set-up,
// so every admit and reconfigure must be a cache hit and no session
// may compile.  The oracle replays sampled sessions' scripts, churn
// included, on a stand-alone per-instance kCompiled array.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.hpp"
#include "src/common/fnv.hpp"
#include "src/common/rng.hpp"
#include "src/dedhw/umts_scrambler.hpp"
#include "src/fleet/fleet.hpp"
#include "src/rake/maps.hpp"
#include "src/xpp/manager.hpp"

namespace perfbench {
namespace {

using rsp::fleet::SessionId;
using rsp::xpp::Word;

constexpr int kSessions = 64;
constexpr long long kQuantumChips = 256;
constexpr int kEvictEvery = 4;
/// Distinct input frames per session slot, fed round-robin.
constexpr int kRing = 8;
/// Sessions whose scripts the oracle replays.
constexpr int kSampledInitial = 3;
/// Cycles run by the throwaway terminal that publishes each program.
constexpr long long kWarmChips = 4 * kQuantumChips;

std::vector<rsp::CplxI> random_chips(std::size_t n, rsp::Rng& rng) {
  std::vector<rsp::CplxI> out(n);
  for (auto& c : out) {
    c = {static_cast<int>(rng.below(2000)) - 1000,
         static_cast<int>(rng.below(2000)) - 1000};
  }
  return out;
}

/// Input frames of one session slot.
struct SlotInputs {
  std::vector<std::vector<Word>> data;  ///< [kRing] packed chips
  std::vector<std::vector<Word>> code;  ///< [kRing] 2-bit scrambling words
};

/// What the oracle needs to replay one session: its slot, first
/// configuration and first quantum, the quanta whose churn flipped its
/// configuration, the quantum it was evicted at, and a digest of every
/// output word it produced.
struct SessionLog {
  int slot = 0;
  bool descr0 = false;
  long long first_q = 0;
  long long end_q = -1;  ///< -1 while the session is live
  std::vector<long long> reconfigured_at;
  rsp::Fnv1a out;
  long long words = 0;
};

struct Live {
  SessionId id = rsp::fleet::kNoSession;
  int slot = 0;
  bool descr = false;
  int log = -1;  ///< index into logs_, -1 when not sampled
};

class FleetServe final : public Workload {
 public:
  FleetServe(std::uint64_t seed, const Workers& w) : seed_(seed), workers_(w) {}

  void setup() override {
    descr_ = rsp::rake::maps::descrambler_config();
    despr_ = rsp::rake::maps::despreader_config(16, 1);
    inputs_.resize(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      rsp::Rng rng(rsp::Rng::split(seed_, static_cast<std::uint64_t>(s)));
      rsp::dedhw::UmtsScrambler scr(16);
      for (int f = 0; f < kRing; ++f) {
        inputs_[s].data.push_back(rsp::rake::maps::pack_stream(
            random_chips(static_cast<std::size_t>(kQuantumChips), rng)));
        std::vector<Word> code(static_cast<std::size_t>(kQuantumChips));
        for (auto& c : code) c = scr.next2() & 3;
        inputs_[s].code.push_back(std::move(code));
      }
    }

    cache_ = std::make_unique<rsp::xpp::BatchProgramCache>();
    warm(descr_, true);
    warm(despr_, false);
    cache_base_ = cache_->stats();

    rsp::fleet::FleetOptions opts;
    opts.threads = workers_.fleet;
    opts.cache = cache_.get();
    fleet_ = std::make_unique<rsp::fleet::FleetManager>(opts);

    rsp::Rng pick(rsp::Rng::split(seed_, 0x5A3E1Eull));
    std::vector<int> sampled;
    while (static_cast<int>(sampled.size()) < kSampledInitial) {
      const int s = static_cast<int>(pick.below(kSessions));
      if (std::find(sampled.begin(), sampled.end(), s) == sampled.end()) {
        sampled.push_back(s);
      }
    }
    for (int s = 0; s < kSessions; ++s) {
      Live l;
      l.slot = s;
      l.descr = s % 2 == 0;
      l.id = admit(l.descr, nullptr);
      if (std::find(sampled.begin(), sampled.end(), s) != sampled.end()) {
        l.log = new_log(l);
      }
      live_.push_back(l);
    }
    churn_ = rsp::Rng(rsp::Rng::split(seed_, 0xC4u));
  }

  Window measure(double seconds, bool traced, Verdict& v) override {
    Window w;
    const auto t0 = Clock::now();
    do {
      const auto tq = Clock::now();
      const double c0 = thread_cpu_s();
      {
        const Scope root("quantum", static_cast<std::uint64_t>(quantum_));
        run_quantum(traced ? nullptr : &reconfig_us_,
                    traced ? nullptr : &admit_us_, v);
      }
      w.frame_cpu_s.push_back(thread_cpu_s() - c0);
      w.frame_s.push_back(seconds_since(tq));
      w.frame_kind.push_back(static_cast<std::uint16_t>(quantum_ % kEvictEvery));
      w.frames += static_cast<long long>(live_.size());
      ++quantum_;
    } while (seconds_since(t0) < seconds);
    w.wall_s = seconds_since(t0);
    return w;
  }

  void check(Verdict& v) override {
    if (admit_hits_ != admits_) {
      v.fail(admits_ - admit_hits_, "admits missed the warmed cache");
    }
    if (reconfig_hits_ != reconfigures_) {
      v.fail(reconfigures_ - reconfig_hits_,
             "reconfigures missed the warmed cache");
    }
    const auto st = fleet_->stats();
    if (st.compiles != 0) {
      v.fail(1, std::to_string(st.compiles) +
                    " compiles after warm-up (sessions ran detection)");
    }
    for (const SessionLog& log : logs_) {
      if (replay(log) != std::make_pair(log.out.value(), log.words)) {
        v.fail(1, "session of slot " + std::to_string(log.slot) +
                      " differs from its per-instance kCompiled replay");
      }
      ++replayed_;
    }
  }

  void layers(const Fold& f, const Totals& /*untraced*/,
              std::vector<Metric>& out) override {
    const auto st = fleet_->stats();
    const auto cs = cache_->stats();
    out.push_back(self_per_call(f, "fleet.admit"));
    out.push_back(Metric::of("fleet.admits", static_cast<double>(st.admits),
                             "count"));
    out.push_back(Metric::of_ratio(
        "fleet.cache_hit_ratio", Ratio{static_cast<double>(admit_hits_),
                                       static_cast<double>(admits_)}));
    out.push_back(self_per_call(f, "fleet.reconfigure"));
    out.push_back(Metric::of("fleet.reconfigures",
                             static_cast<double>(st.reconfigures), "count"));
    out.push_back(self_per_call(f, "fleet.evict"));
    out.push_back(self_per_frame(f, "fleet.run_cycles"));
    out.push_back(self_per_frame(f, "fleet.io"));
    const double session_cycles =
        static_cast<double>(f.roots) * kSessions * kQuantumChips;
    out.push_back(Metric::of("fleet.ns_per_session_cycle",
                             session_cycles > 0
                                 ? f.self_s("fleet.run_cycles") * 1e9 /
                                       session_cycles
                                 : 0.0,
                             "ns")
                      .with("session_cycles", session_cycles));
    latencies(out);
    out.push_back(Metric::of_ratio(
        "xpp.batch.batched_frac",
        Ratio{static_cast<double>(st.batched_cycles),
              static_cast<double>(st.batched_cycles + st.scalar_cycles)}));
    out.push_back(Metric::of("xpp.batch.guard_exits",
                             static_cast<double>(st.guard_exits), "count"));
    out.push_back(Metric::of("xpp.batch.gathers",
                             static_cast<double>(st.gathers), "count"));
    out.push_back(Metric::of_ratio(
        "xpp.cache.hit_ratio",
        Ratio{static_cast<double>(cs.hits - cache_base_.hits),
              static_cast<double>(cs.lookups - cache_base_.lookups)}));
    out.push_back(Metric::of("xpp.compiled.compiles",
                             static_cast<double>(st.compiles), "count"));
  }

  void extras(std::vector<Metric>& out) override {
    latencies(out);
    out.push_back(Metric::of("oracle_sessions", static_cast<double>(replayed_),
                             "count"));
  }

  [[nodiscard]] std::string params_json() const override {
    return "\"sessions\": " + std::to_string(kSessions) +
           ", \"configs\": [\"rake::maps::descrambler_config()\", "
           "\"rake::maps::despreader_config(16, 1)\"], \"quantum_chips\": " +
           std::to_string(kQuantumChips) +
           ", \"reconfigure_every_quanta\": 1, \"evict_admit_every_quanta\": " +
           std::to_string(kEvictEvery) + ", \"fleet_threads\": " +
           std::to_string(workers_.fleet) +
           ", \"loop\": \"closed: one serving thread starts a quantum when "
           "the previous one completed\"";
  }

 private:
  /// Publish @p cfg's steady-state program by running a throwaway
  /// terminal (its own fleet) against the shared cache.
  void warm(const rsp::xpp::Configuration& cfg, bool with_code) {
    rsp::fleet::FleetOptions opts;
    opts.cache = cache_.get();
    rsp::fleet::FleetManager mgr(opts);
    const SessionId id = mgr.admit(cfg);
    rsp::Rng rng(rsp::Rng::split(seed_, 0x3A2Eull));
    mgr.input(id, "data").feed(rsp::rake::maps::pack_stream(
        random_chips(static_cast<std::size_t>(kWarmChips), rng)));
    if (with_code) {
      rsp::dedhw::UmtsScrambler scr(16);
      std::vector<Word> code(static_cast<std::size_t>(kWarmChips));
      for (auto& c : code) c = scr.next2() & 3;
      mgr.input(id, "code").feed(code);
    }
    mgr.run_cycles(kWarmChips + kQuantumChips);
  }

  SessionId admit(bool descr, std::vector<double>* us) {
    const auto t = Clock::now();
    SessionId id = rsp::fleet::kNoSession;
    {
      const Scope s("fleet.admit");
      id = fleet_->admit(descr ? descr_ : despr_);
    }
    if (us != nullptr) us->push_back(seconds_since(t) * 1e6);
    ++admits_;
    if (fleet_->cache_hit(id)) ++admit_hits_;
    return id;
  }

  int new_log(const Live& l) {
    SessionLog log;
    log.slot = l.slot;
    log.descr0 = l.descr;
    log.first_q = quantum_;
    logs_.push_back(std::move(log));
    return static_cast<int>(logs_.size()) - 1;
  }

  void run_quantum(std::vector<double>* reconfig_us,
                   std::vector<double>* admit_us, Verdict& v) {
    {
      // Even quanta move a descrambler session to the despreader, odd
      // quanta move one back, so the two groups stay within one session
      // of an even split.
      const bool from_descr = quantum_ % 2 == 0;
      Live* pick = nullptr;
      do {
        pick = &live_[churn_.below(static_cast<std::uint32_t>(live_.size()))];
      } while (pick->descr != from_descr);
      Live& l = *pick;
      const auto t = Clock::now();
      {
        const Scope s("fleet.reconfigure");
        fleet_->reconfigure(l.id, l.descr ? despr_ : descr_);
      }
      if (reconfig_us != nullptr) {
        reconfig_us->push_back(seconds_since(t) * 1e6);
      }
      l.descr = !l.descr;
      ++reconfigures_;
      if (fleet_->cache_hit(l.id)) ++reconfig_hits_;
      if (l.log >= 0) {
        logs_[static_cast<std::size_t>(l.log)].reconfigured_at.push_back(
            quantum_);
      }
      v.attempted += 1;
    }
    if (quantum_ % kEvictEvery == kEvictEvery - 1) {
      Live& l = live_[churn_.below(static_cast<std::uint32_t>(live_.size()))];
      {
        const Scope s("fleet.evict");
        fleet_->evict(l.id);
      }
      if (l.log >= 0) logs_[static_cast<std::size_t>(l.log)].end_q = quantum_;
      const bool first_churn_admit = admits_ == kSessions;
      l.id = admit(l.descr, admit_us);
      l.log = first_churn_admit ? new_log(l) : -1;
      v.attempted += 2;
    }

    const int frame = static_cast<int>(quantum_ % kRing);
    {
      const Scope s("fleet.io");
      for (const Live& l : live_) {
        const SlotInputs& in = inputs_[static_cast<std::size_t>(l.slot)];
        fleet_->input(l.id, "data").feed(in.data[frame]);
        if (l.descr) fleet_->input(l.id, "code").feed(in.code[frame]);
      }
    }
    {
      const Scope s("fleet.run_cycles");
      fleet_->run_cycles(kQuantumChips);
    }
    {
      const Scope s("fleet.io");
      for (const Live& l : live_) {
        const std::vector<Word> words = fleet_->output(l.id, "out").take();
        if (l.log >= 0) {
          SessionLog& log = logs_[static_cast<std::size_t>(l.log)];
          for (const Word w : words) log.out.mix(static_cast<std::uint32_t>(w));
          log.words += static_cast<long long>(words.size());
        }
      }
    }
    v.attempted += 1;
  }

  /// The session's script on a stand-alone per-instance kCompiled
  /// terminal: same loads, releases, feeds and cycle counts.  Returns
  /// the digest and count of its output words.
  [[nodiscard]] std::pair<std::uint64_t, long long> replay(
      const SessionLog& log) const {
    rsp::xpp::ConfigurationManager mgr({}, rsp::xpp::SchedulerKind::kCompiled);
    bool descr = log.descr0;
    rsp::xpp::ConfigId id = mgr.load(descr ? descr_ : despr_);
    const SlotInputs& in = inputs_[static_cast<std::size_t>(log.slot)];
    rsp::Fnv1a out;
    long long words = 0;
    std::size_t next = 0;
    const long long end = log.end_q < 0 ? quantum_ : log.end_q;
    for (long long q = log.first_q; q < end; ++q) {
      if (next < log.reconfigured_at.size() && log.reconfigured_at[next] == q) {
        mgr.release(id);
        descr = !descr;
        id = mgr.load(descr ? descr_ : despr_);
        ++next;
      }
      const auto frame = static_cast<std::size_t>(q % kRing);
      mgr.input(id, "data").feed(in.data[frame]);
      if (descr) mgr.input(id, "code").feed(in.code[frame]);
      mgr.sim().run(kQuantumChips);
      for (const Word w : mgr.output(id, "out").take()) {
        out.mix(static_cast<std::uint32_t>(w));
        ++words;
      }
    }
    return {out.value(), words};
  }

  /// Admit and reconfigure latency tails of the untraced window.
  void latencies(std::vector<Metric>& out) const {
    out.push_back(
        Metric::of_tail("admit_us_p50", percentile(admit_us_, 50), 1.0, "us"));
    out.push_back(
        Metric::of_tail("admit_us_p99", tail_percentile(admit_us_), 1.0, "us"));
    out.push_back(Metric::of_tail("reconfig_us_p50",
                                  percentile(reconfig_us_, 50), 1.0, "us"));
    out.push_back(Metric::of_tail("reconfig_us_p99",
                                  tail_percentile(reconfig_us_), 1.0, "us"));
  }

  std::uint64_t seed_;
  Workers workers_;
  rsp::xpp::Configuration descr_;
  rsp::xpp::Configuration despr_;
  std::vector<SlotInputs> inputs_;
  std::unique_ptr<rsp::xpp::BatchProgramCache> cache_;
  rsp::xpp::BatchProgramCache::Stats cache_base_;
  std::unique_ptr<rsp::fleet::FleetManager> fleet_;
  std::vector<Live> live_;
  std::vector<SessionLog> logs_;
  rsp::Rng churn_{0};
  long long quantum_ = 0;
  long long admits_ = 0;
  long long admit_hits_ = 0;
  long long reconfigures_ = 0;
  long long reconfig_hits_ = 0;
  std::size_t replayed_ = 0;
  std::vector<double> admit_us_;
  std::vector<double> reconfig_us_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_serve(std::uint64_t seed,
                                           const Workers& w) {
  return std::make_unique<FleetServe>(seed, w);
}

}  // namespace perfbench
