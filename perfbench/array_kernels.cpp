// array_kernels: the paper's array mappings as cold ScenarioFarm jobs.
//
// Every job builds a fresh kCompiled ConfigurationManager, so nothing is
// shared or cached across jobs: each one pays configuration loading,
// event-driven interpretation, steady-state detection and compile before
// any replay.  This is the workload on which those layers dominate.
// Jobs cycle through the descrambler, the despreader at SF 16 and 64,
// the FFT64 over one PPDU's symbols, the Viterbi ACS over one codeword
// and the polyphase channelizer over one wideband block.  Each job's
// output is compared with its golden model, computed before the window.
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/farm_window.hpp"
#include "perfbench/workloads.hpp"
#include "src/chan/golden.hpp"
#include "src/chan/maps.hpp"
#include "src/common/rng.hpp"
#include "src/dedhw/convcode.hpp"
#include "src/dedhw/umts_scrambler.hpp"
#include "src/dedhw/viterbi.hpp"
#include "src/farm/farm.hpp"
#include "src/ofdm/maps.hpp"
#include "src/phy/fft.hpp"
#include "src/rake/golden.hpp"
#include "src/rake/maps.hpp"
#include "src/vit/maps.hpp"
#include "src/xpp/compiled.hpp"
#include "src/xpp/manager.hpp"

namespace perfbench {
namespace {

using rsp::CplxI;

enum class Kind { kDescrambler, kDespreader16, kDespreader64, kFft64, kViterbi,
                  kChannelizer };
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kChannelizer) + 1;

/// The job cycle, by task slot.  The despreader runs at both spreading
/// factors; the cycle is seven slots long so the latency median falls
/// inside one kernel's cluster instead of on the gap between two.
constexpr Kind kSlots[] = {Kind::kDescrambler,  Kind::kDespreader16,
                           Kind::kDespreader64, Kind::kFft64,
                           Kind::kViterbi,      Kind::kChannelizer,
                           Kind::kDescrambler};
constexpr std::size_t kNumSlots = std::size(kSlots);
constexpr std::size_t kChunk = 4 * kNumSlots;

constexpr std::size_t kFrameChips = 12288;  ///< one rake_link frame
constexpr std::size_t kPpduSymbols = 34;    ///< 800-bit PSDU at 6 Mbit/s
constexpr std::size_t kCodewordBits = 800;
constexpr std::size_t kWidebandSamples = 4096;
constexpr double kChannelizerTolLsb = 12.0;
/// Distinct inputs per kernel; jobs use them round-robin.
constexpr std::size_t kPool = 4;

/// Span name of each kind's mapping call.
const char* layer_of(Kind k) {
  switch (k) {
    case Kind::kDescrambler: return "rake.maps.descrambler";
    case Kind::kDespreader16:
    case Kind::kDespreader64: return "rake.maps.despreader";
    case Kind::kFft64: return "ofdm.maps.fft64";
    case Kind::kViterbi: return "vit.acs";
    case Kind::kChannelizer: return "chan.channelizer";
  }
  return "";
}

struct Inputs {
  std::vector<CplxI> chips;
  std::vector<std::uint8_t> code2;
  std::vector<std::array<CplxI, rsp::phy::kFftSize>> symbols;
  std::vector<std::int32_t> soft;
  std::vector<CplxI> wideband;
};

struct Goldens {
  std::vector<CplxI> descrambled;
  std::vector<CplxI> despread16;
  std::vector<CplxI> despread64;
  std::vector<std::array<CplxI, rsp::phy::kFftSize>> spectra;
  std::vector<std::uint8_t> decoded;
  std::array<std::vector<rsp::chan::CplxD>, rsp::chan::kBands> bands;
};

/// What one job measured on its own array.
struct JobStats {
  Kind kind = Kind::kDescrambler;
  bool ok = false;
  long long cycles = 0;       ///< execution cycles
  long long load_cycles = 0;  ///< configuration load/release cycles
  rsp::xpp::CompiledStats compiled;
};

std::vector<CplxI> random_iq(std::size_t n, int amp, rsp::Rng& rng) {
  std::vector<CplxI> v(n);
  const auto span = static_cast<std::uint32_t>(2 * amp + 1);
  for (auto& c : v) {
    c = {static_cast<int>(rng.below(span)) - amp,
         static_cast<int>(rng.below(span)) - amp};
  }
  return v;
}

Inputs make_inputs(rsp::Rng& rng) {
  Inputs in;
  in.chips = random_iq(kFrameChips, 1000, rng);
  rsp::dedhw::UmtsScrambler scr(16 + rng.below(16));
  in.code2.resize(kFrameChips);
  for (auto& c : in.code2) c = scr.next2();
  in.symbols.resize(kPpduSymbols);
  for (auto& s : in.symbols) {
    const auto v = random_iq(rsp::phy::kFftSize, 511, rng);
    std::copy(v.begin(), v.end(), s.begin());
  }
  std::vector<std::uint8_t> bits(kCodewordBits);
  for (auto& b : bits) b = rng.bit() ? 1 : 0;
  const auto coded = rsp::dedhw::conv_encode(bits, rsp::dedhw::CodeRate::kR12);
  in.soft.resize(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const int noise = static_cast<int>(rng.below(1201)) - 600;
    in.soft[i] = (coded[i] ? 900 : -900) + noise;
  }
  in.wideband = random_iq(kWidebandSamples, 2047, rng);
  return in;
}

Goldens make_goldens(const Inputs& in) {
  Goldens g;
  g.descrambled = rsp::rake::descramble(in.chips, in.code2);
  g.despread16 = rsp::rake::despread(in.chips, 16, 1);
  g.despread64 = rsp::rake::despread(in.chips, 64, 3);
  for (const auto& s : in.symbols) g.spectra.push_back(rsp::phy::fft64_fixed(s));
  g.decoded = rsp::dedhw::ViterbiDecoder().decode(in.soft, kCodewordBits);
  std::vector<rsp::chan::CplxD> x(in.wideband.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = in.wideband[i].to_f();
  g.bands = rsp::chan::golden_channelize(x);
  return g;
}

bool within_tolerance(
    const std::array<std::vector<CplxI>, rsp::chan::kBands>& got,
    const std::array<std::vector<rsp::chan::CplxD>, rsp::chan::kBands>& want) {
  for (int b = 0; b < rsp::chan::kBands; ++b) {
    if (got[b].size() != want[b].size()) return false;
    for (std::size_t m = 0; m < got[b].size(); ++m) {
      if (std::abs(got[b][m].re - want[b][m].real()) > kChannelizerTolLsb ||
          std::abs(got[b][m].im - want[b][m].imag()) > kChannelizerTolLsb) {
        return false;
      }
    }
  }
  return true;
}

/// Run the mapping of @p kind on a fresh array; compare with @p golden
/// when given.
JobStats run_job(Kind kind, const Inputs& in, const Goldens* golden) {
  rsp::xpp::ConfigurationManager mgr({}, rsp::xpp::SchedulerKind::kCompiled);
  JobStats st;
  st.kind = kind;
  bool ok = true;
  switch (kind) {
    case Kind::kDescrambler: {
      std::vector<CplxI> out;
      {
        const Scope s(layer_of(kind));
        out = rsp::rake::maps::run_descrambler(mgr, in.chips, in.code2);
      }
      ok = golden == nullptr || out == golden->descrambled;
      break;
    }
    case Kind::kDespreader16:
    case Kind::kDespreader64: {
      const bool sf16 = kind == Kind::kDespreader16;
      std::vector<CplxI> out;
      {
        const Scope s(layer_of(kind));
        out = rsp::rake::maps::run_despreader(mgr, in.chips, sf16 ? 16 : 64,
                                              sf16 ? 1 : 3);
      }
      ok = golden == nullptr ||
           out == (sf16 ? golden->despread16 : golden->despread64);
      break;
    }
    case Kind::kFft64: {
      std::vector<std::array<CplxI, rsp::phy::kFftSize>> out;
      {
        const Scope s(layer_of(kind));
        out = rsp::ofdm::maps::run_fft64_batch(mgr, in.symbols);
      }
      ok = golden == nullptr || out == golden->spectra;
      break;
    }
    case Kind::kViterbi: {
      std::vector<std::uint8_t> out;
      {
        const Scope s(layer_of(kind));
        out = rsp::vit::run_viterbi_acs(mgr, in.soft, kCodewordBits);
      }
      ok = golden == nullptr || out == golden->decoded;
      break;
    }
    case Kind::kChannelizer: {
      std::array<std::vector<CplxI>, rsp::chan::kBands> out;
      {
        const Scope s(layer_of(kind));
        out = rsp::chan::run_channelizer(mgr, in.wideband);
      }
      ok = golden == nullptr || within_tolerance(out, golden->bands);
      break;
    }
  }
  st.ok = ok;
  st.load_cycles = mgr.total_config_cycles();
  st.cycles = mgr.sim().cycle() - st.load_cycles;
  if (const auto* eng = mgr.sim().compiled_engine()) st.compiled = eng->stats();
  return st;
}

class ArrayKernels final : public Workload {
 public:
  ArrayKernels(std::uint64_t seed, const Workers& w) : seed_(seed), workers_(w) {}

  void setup() override {
    for (std::size_t p = 0; p < kPool; ++p) {
      rsp::Rng rng(rsp::Rng::split(seed_, 0xA77A0000ull + p));
      inputs_.push_back(make_inputs(rng));
    }
    rsp::farm::FarmOptions opts;
    opts.threads = workers_.farm;
    farm_ = std::make_unique<rsp::farm::ScenarioFarm>(opts);
    // One job of every slot: fills the tables the library builds lazily.
    (void)farm_->run(kNumSlots, seed_, [&](std::uint64_t, std::size_t i) {
      (void)run_job(kSlots[i % kNumSlots], inputs_[0], nullptr);
      return rsp::farm::TrialResult{};
    });
  }

  void prepare_oracle() override {
    for (const Inputs& in : inputs_) goldens_.push_back(make_goldens(in));
  }

  Window measure(double seconds, bool traced, Verdict& v) override {
    return run_farm_window(
        *farm_, seconds, kChunk, kNumSlots, seed_, traced, log_, v,
        [&](std::size_t c) {
          return rsp::farm::TrialKernel(
              [this, c, traced](std::uint64_t, std::size_t i) {
                const std::size_t job = c * kChunk + i;
                const Scope root("job", job);
                const std::size_t p = job / kNumSlots % kPool;
                record(run_job(kSlots[i % kNumSlots], inputs_[p], &goldens_[p]),
                       traced, job);
                rsp::farm::TrialResult r;
                r.frames = 1;
                return r;
              });
        });
  }

  void check(Verdict& v) override {
    if (mismatches_ > 0) {
      v.fail(mismatches_, std::to_string(mismatches_) +
                              " jobs differ from their golden models, first " +
                              first_mismatch_);
    }
  }

  void layers(const Fold& f, const Totals& untraced,
              std::vector<Metric>& out) override {
    std::map<std::string, KindTotals> by_layer;
    double jobs = 0;
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
      KindTotals& a = by_layer[layer_of(static_cast<Kind>(k))];
      a.jobs += kinds_[k].jobs;
      a.cycles += kinds_[k].cycles;
      a.load += kinds_[k].load;
      a.traced_cycles += kinds_[k].traced_cycles;
      jobs += kinds_[k].jobs;
    }
    const rsp::xpp::CompiledStats& sum = compiled_;
    for (const char* l : {"rake.maps.descrambler", "rake.maps.despreader",
                          "ofdm.maps.fft64", "vit.acs", "chan.channelizer"}) {
      const KindTotals& a = by_layer[l];
      const double calls = static_cast<double>(f.calls(l));
      const std::string n = l;
      out.push_back(
          Metric::of(n + ".self_s", calls > 0 ? f.self_s(l) / calls : 0.0,
                     "s/job")
              .with("calls", calls));
      out.push_back(Metric::of(n + ".cycles",
                               a.jobs > 0 ? a.cycles / a.jobs : 0.0,
                               "cycles/job")
                        .with("jobs", a.jobs));
      out.push_back(Metric::of(n + ".load_cycles",
                               a.jobs > 0 ? a.load / a.jobs : 0.0,
                               "cycles/job")
                        .with("jobs", a.jobs));
      out.push_back(Metric::of(n + ".ns_per_cycle",
                               a.traced_cycles > 0
                                   ? f.self_s(l) * 1e9 / a.traced_cycles
                                   : 0.0,
                               "ns")
                        .with("traced_cycles", a.traced_cycles));
    }
    // Mean simulated cycles (execution + configuration) of one slot
    // cycle, per job: exact whenever each kernel's cycle count is.
    double per_cycle = 0;
    for (const Kind k : kSlots) {
      const KindTotals& a = kinds_[static_cast<std::size_t>(k)];
      if (a.jobs > 0) per_cycle += (a.cycles + a.load) / a.jobs;
    }
    out.push_back(Metric::of("sim_cycles",
                             per_cycle / static_cast<double>(kNumSlots),
                             "cycles/job")
                      .with("jobs", jobs));
    out.push_back(Metric::of_ratio(
        "xpp.compiled.replay_frac",
        Ratio{static_cast<double>(sum.replayed_cycles),
              static_cast<double>(sum.replayed_cycles + sum.recorded_cycles)}));
    out.push_back(Metric::of("xpp.compiled.compiles",
                             static_cast<double>(sum.compiles), "count")
                      .with("jobs", jobs));
    out.push_back(Metric::of("xpp.compiled.compile_refusals",
                             static_cast<double>(sum.compile_refusals), "count")
                      .with("jobs", jobs));
    out.push_back(Metric::of("xpp.compiled.deopts",
                             static_cast<double>(sum.deopts), "count")
                      .with("jobs", jobs));
    farm_layer_metrics(untraced, workers_.farm, out);
  }

  [[nodiscard]] std::string params_json() const override {
    std::string slots;
    for (std::size_t i = 0; i < kNumSlots; ++i) {
      slots += (i ? ", " : "") + json_string(layer_of(kSlots[i]));
    }
    return "\"jobs_by_task_slot\": [" + slots +
           "], \"despreader_sf\": [16, 64], \"frame_chips\": " +
           std::to_string(kFrameChips) +
           ", \"fft64_symbols\": " + std::to_string(kPpduSymbols) +
           ", \"viterbi_info_bits\": " + std::to_string(kCodewordBits) +
           ", \"channelizer_samples\": " + std::to_string(kWidebandSamples) +
           ", \"scheduler\": \"kCompiled, fresh ConfigurationManager per "
           "job\", \"chunk_tasks\": " +
           std::to_string(kChunk) +
           ", \"loop\": \"closed: ScenarioFarm::run over chunks of jobs "
           "until the window ends\"";
  }

 private:
  /// Totals of one kernel over every job run so far.
  struct KindTotals {
    double jobs = 0;
    double cycles = 0;
    double load = 0;
    double traced_cycles = 0;  ///< execution + load cycles of traced jobs
  };

  /// Fold one job into the totals (called from farm workers).
  void record(const JobStats& st, bool traced, std::size_t job) {
    const std::lock_guard<std::mutex> lock(mu_);
    KindTotals& k = kinds_[static_cast<std::size_t>(st.kind)];
    k.jobs += 1;
    k.cycles += static_cast<double>(st.cycles);
    k.load += static_cast<double>(st.load_cycles);
    if (traced) k.traced_cycles += static_cast<double>(st.cycles + st.load_cycles);
    compiled_.replayed_cycles += st.compiled.replayed_cycles;
    compiled_.recorded_cycles += st.compiled.recorded_cycles;
    compiled_.compiles += st.compiled.compiles;
    compiled_.compile_refusals += st.compiled.compile_refusals;
    compiled_.deopts += st.compiled.deopts;
    if (!st.ok && mismatches_++ == 0) {
      first_mismatch_ =
          std::string(layer_of(st.kind)) + " job " + std::to_string(job);
    }
  }

  std::uint64_t seed_;
  Workers workers_;
  std::vector<Inputs> inputs_;
  std::vector<Goldens> goldens_;
  std::unique_ptr<rsp::farm::ScenarioFarm> farm_;
  ChunkLog log_;
  std::mutex mu_;  ///< guards the totals below
  std::array<KindTotals, kKinds> kinds_{};
  rsp::xpp::CompiledStats compiled_;
  long long mismatches_ = 0;
  std::string first_mismatch_;
};

}  // namespace

std::unique_ptr<Workload> make_array_kernels(std::uint64_t seed,
                                             const Workers& w) {
  return std::make_unique<ArrayKernels>(seed, w);
}

}  // namespace perfbench
