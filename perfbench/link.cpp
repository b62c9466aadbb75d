// rake_link and wlan_link: Monte-Carlo link trials on the ScenarioFarm.
//
// Untraced windows run the library's own farm::kernels::RakeTrial and
// WlanTrial.  Traced windows run a decomposition that makes the same
// public calls in the same order with a span around each layer; the
// oracle re-runs sampled traced chunks through farm::run_serial with
// the library kernel, and (wlan) compares the decomposed decode with
// OfdmReceiver::receive bit for bit.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/farm_window.hpp"
#include "perfbench/workloads.hpp"
#include "src/common/rng.hpp"
#include "src/dedhw/convcode.hpp"
#include "src/dedhw/viterbi.hpp"
#include "src/dedhw/wlan_scrambler.hpp"
#include "src/farm/farm.hpp"
#include "src/farm/kernels.hpp"
#include "src/ofdm/golden.hpp"
#include "src/phy/channel.hpp"
#include "src/phy/interleaver.hpp"
#include "src/phy/modulation.hpp"
#include "src/phy/ofdm_tx.hpp"
#include "src/phy/umts_tx.hpp"
#include "src/rake/receiver.hpp"

namespace perfbench {
namespace {

using rsp::CplxF;
using rsp::farm::TrialResult;
using rsp::farm::kernels::RakeTrial;
using rsp::farm::kernels::WlanTrial;

/// Untraced sampled chunks re-run serially, and traced chunks checked
/// against the library kernel.
constexpr std::size_t kUntracedChecks = 2;
constexpr std::size_t kTracedChecks = 1;

// ---------------------------------------------------------------------------
// rake_link

/// RakeTrial::operator() with a span around each layer.
TrialResult traced_rake_trial(const RakeTrial& p, std::uint64_t seed) {
  rsp::Rng rng(seed);
  rsp::phy::BasestationConfig bs;
  bs.scrambling_code = 16;
  bs.cpich_gain = 0.5;
  rsp::phy::DpchConfig ch;
  ch.sf = 64;
  ch.code_index = 3;
  ch.gain = 0.7;
  ch.bits.resize(256);
  for (auto& b : ch.bits) b = rng.bit() ? 1 : 0;
  bs.channels.push_back(ch);

  std::vector<CplxF> chips;
  {
    Scope s("phy.umts_tx");
    rsp::phy::UmtsDownlinkTx tx(bs);
    chips = tx.generate(64 * p.symbols)[0];
  }
  count("phy.chips", static_cast<long long>(chips.size()));
  std::vector<CplxF> rx;
  {
    Scope s("phy.channel");
    rsp::phy::MultipathChannel mp({{2, {0.62, 0.0}, 0.0},
                                   {9, {0.0, 0.55}, 0.0},
                                   {17, {0.39, -0.3}, 0.0}},
                                  3.84e6);
    rx = mp.run(chips, p.esn0_db, rng);
  }

  rsp::rake::RakeConfig cfg;
  cfg.scrambling_codes = {16};
  cfg.sf = 64;
  cfg.code_index = 3;
  cfg.paths_per_bs = p.fingers;
  cfg.pilot_amplitude = 0.5;
  const rsp::rake::RakeReceiver receiver(cfg);
  std::vector<rsp::rake::FingerInfo> fingers;
  {
    Scope s("rake.acquire");
    fingers = receiver.acquire(rx, nullptr);
  }
  rsp::rake::RakeOutput out;
  {
    Scope s("rake.receive");
    out = receiver.receive_with_fingers(rx, fingers);
  }
  count("rake.fingers", static_cast<long long>(fingers.size()));
  count("rake.symbols", static_cast<long long>(out.combined.size()));

  TrialResult r;
  r.frames = 1;
  if (out.bits.empty()) {
    r.frame_errors = 1;
    return r;
  }
  r.bits = out.bits.size();
  for (std::size_t i = 0; i < out.bits.size(); ++i) {
    r.bit_errors += (out.bits[i] != ch.bits[i % ch.bits.size()]) ? 1 : 0;
  }
  r.frame_errors = r.bit_errors > 0 ? 1 : 0;
  return r;
}

/// Shared driving of both link workloads: set-up, windows, oracles and
/// the farm layer.  Subclasses supply the kernels and their layers.
class LinkWorkload : public Workload {
 public:
  /// Task i of a chunk is of kind i % @p kinds.
  LinkWorkload(std::uint64_t seed, const Workers& w, std::size_t chunk,
               std::size_t kinds)
      : seed_(seed), workers_(w), chunk_(chunk), kinds_(kinds) {}

  void setup() override {
    rsp::farm::FarmOptions opts;
    opts.threads = workers_.farm;
    farm_ = std::make_unique<rsp::farm::ScenarioFarm>(opts);
    // One trial per worker: starts the workers and fills the tables the
    // library builds lazily on first use.
    (void)farm_->run(static_cast<std::size_t>(workers_.farm),
                     rsp::Rng::split(seed_, ~0ull), kernel(0, false));
  }

  Window measure(double seconds, bool traced, Verdict& v) override {
    return run_farm_window(*farm_, seconds, chunk_, kinds_, seed_, traced, log_,
                           v, [&](std::size_t c) { return kernel(c, traced); });
  }

  void check(Verdict& v) override {
    std::size_t checked = 0;
    const auto compare = [&](std::size_t c, const char* what) {
      const auto ref =
          rsp::farm::run_serial(chunk_, chunk_seed(seed_, c), kernel(c, false));
      if (digest(ref.per_task) != log_.digest[c]) {
        v.fail(static_cast<long long>(chunk_),
               std::string(what) + " chunk " + std::to_string(c) +
                   " differs from farm::run_serial");
      }
      checked += chunk_;
    };
    for (const std::size_t c :
         sample_chunks(log_, false, kUntracedChecks, seed_ ^ 0xC4EC)) {
      compare(c, "untraced");
    }
    for (const std::size_t c :
         sample_chunks(log_, true, kTracedChecks, seed_ ^ 0x7ACE)) {
      compare(c, "traced decomposition");
      check_traced_chunk(c, v);
    }
    oracle_tasks_ = checked;
  }

  void extras(std::vector<Metric>& out) override {
    out.push_back(Metric::of("oracle_tasks", static_cast<double>(oracle_tasks_),
                             "count"));
  }

 protected:
  /// The kernel of chunk @p c, library (untraced) or decomposed (traced).
  [[nodiscard]] virtual rsp::farm::TrialKernel kernel(std::size_t c,
                                                      bool traced) const = 0;
  /// Extra per-task checks of a traced chunk.
  virtual void check_traced_chunk(std::size_t /*c*/, Verdict& /*v*/) {}

  [[nodiscard]] std::uint64_t trace_id(std::size_t c, std::size_t i) const {
    return static_cast<std::uint64_t>(c * chunk_ + i);
  }

  std::uint64_t seed_;
  Workers workers_;
  std::size_t chunk_;
  std::size_t kinds_;
  std::unique_ptr<rsp::farm::ScenarioFarm> farm_;
  ChunkLog log_;
  std::size_t oracle_tasks_ = 0;
};

class RakeLink final : public LinkWorkload {
 public:
  RakeLink(std::uint64_t seed, const Workers& w)
      : LinkWorkload(seed, w, 32, 1) {}

  void layers(const Fold& f, const Totals& untraced,
              std::vector<Metric>& out) override {
    for (const char* l :
         {"phy.umts_tx", "phy.channel", "rake.acquire", "rake.receive"}) {
      out.push_back(self_per_frame(f, l));
    }
    for (const char* c : {"phy.chips", "rake.fingers", "rake.symbols"}) {
      out.push_back(count_per_frame(f, c));
    }
    farm_layer_metrics(untraced, workers_.farm, out);
  }

  [[nodiscard]] std::string params_json() const override {
    return "\"kernel\": \"farm::kernels::RakeTrial\", \"fingers\": 3, "
           "\"esn0_db\": 0, \"symbols\": 192, \"chips_per_trial\": 12288, "
           "\"chunk_tasks\": " +
           std::to_string(chunk_) +
           ", \"loop\": \"closed: ScenarioFarm::run over chunks of "
           "independent trials until the window ends\"";
  }

 private:
  [[nodiscard]] rsp::farm::TrialKernel kernel(std::size_t c,
                                              bool traced) const override {
    if (!traced) {
      return [](std::uint64_t s, std::size_t) { return RakeTrial{}(s); };
    }
    return [this, c](std::uint64_t s, std::size_t i) {
      const Scope root("trial", trace_id(c, i));
      return traced_rake_trial(RakeTrial{}, s);
    };
  }
};

// ---------------------------------------------------------------------------
// wlan_link

/// Rate of task slot i.  All eight 802.11a modes; 6 Mbit/s, the
/// mandatory base rate that control frames use, takes two of the nine
/// slots so the latency median falls inside one rate's cluster instead
/// of on the gap between two.
constexpr int kWlanRates[] = {6, 9, 12, 18, 24, 36, 48, 54, 6};
constexpr std::size_t kWlanSlots = std::size(kWlanRates);
/// High enough that every rate acquires sync and runs the whole chain.
constexpr double kWlanEsn0Db = 15.0;
constexpr std::size_t kWlanPsduBits = 800;

WlanTrial wlan_params(std::size_t task) {
  WlanTrial p;
  p.mbps = kWlanRates[task % kWlanSlots];
  p.esn0_db = kWlanEsn0Db;
  p.psdu_bits = kWlanPsduBits;
  return p;
}

struct WlanFrame {
  std::vector<std::uint8_t> psdu;
  std::vector<CplxF> capture;
};

/// The transmit half of WlanTrial::operator().
WlanFrame wlan_frame(const WlanTrial& p, std::uint64_t seed) {
  rsp::Rng rng(seed);
  WlanFrame f;
  f.psdu.resize(p.psdu_bits);
  for (auto& b : f.psdu) b = rng.bit() ? 1 : 0;
  {
    Scope s("phy.ofdm_tx");
    rsp::phy::OfdmTransmitter tx;
    f.capture = tx.build_ppdu(f.psdu, p.mbps);
    const std::vector<CplxF> lead(150, CplxF{0, 0});
    f.capture.insert(f.capture.begin(), lead.begin(), lead.end());
  }
  {
    Scope s("phy.awgn");
    f.capture = rsp::phy::awgn(f.capture, p.esn0_db, rng);
  }
  return f;
}

/// OfdmReceiver::receive (default config) as its sequence of public
/// calls, with the inline equalizer loop replicated.
rsp::ofdm::OfdmRxResult traced_wlan_receive(const std::vector<CplxF>& rx,
                                            int mbps, std::size_t n_psdu_bits) {
  using rsp::phy::kCyclicPrefix;
  using rsp::phy::kOfdmFft;
  using rsp::phy::kSymbolSamples;
  rsp::ofdm::OfdmRxConfig cfg;
  cfg.mbps = mbps;
  const rsp::ofdm::OfdmReceiver receiver(cfg);
  rsp::ofdm::OfdmRxResult res;
  const rsp::phy::RateMode& mode = rsp::phy::rate_mode(mbps);

  std::vector<CplxF> work;
  const std::vector<CplxF>* capture = &rx;
  std::size_t lt = 0;
  {
    Scope s("ofdm.sync");
    const rsp::ofdm::PreambleDetector det;
    const auto coarse = det.detect(rx, nullptr);
    if (!coarse) return res;
    res.preamble_found = true;
    if (cfg.correct_cfo && *coarse > 120) {
      res.cfo_hz = rsp::ofdm::estimate_cfo(rx, *coarse - 120, 96, nullptr);
      work = rsp::ofdm::correct_cfo(rx, res.cfo_hz,
                                    rsp::phy::kOfdmSampleRateHz);
      capture = &work;
    }
    lt = rsp::ofdm::fine_sync(*capture, *coarse, nullptr);
  }
  const std::vector<CplxF>& rxc = *capture;
  res.frame_start = lt;

  std::vector<CplxF> h;
  {
    Scope s("ofdm.chan_est");
    h = rsp::ofdm::estimate_channel_lt(rxc, lt, nullptr);
    const auto sig = rsp::ofdm::decode_signal(rxc, lt, h, nullptr);
    if (sig) {
      res.signal_ok = true;
      res.signal = *sig;
    }
  }

  const int nsym =
      rsp::phy::OfdmTransmitter::num_data_symbols(n_psdu_bits, mbps);
  std::vector<std::int32_t> soft;
  soft.reserve(static_cast<std::size_t>(nsym) *
               static_cast<std::size_t>(mode.ncbps));
  std::size_t pos = lt + 2 * kOfdmFft + kSymbolSamples;
  for (int sym = 0; sym < nsym; ++sym) {
    if (pos + kSymbolSamples > rxc.size()) break;
    std::vector<CplxF> bins;
    {
      Scope s("ofdm.fft");
      const std::vector<CplxF> body(
          rxc.begin() + static_cast<std::ptrdiff_t>(pos + kCyclicPrefix),
          rxc.begin() + static_cast<std::ptrdiff_t>(pos + kSymbolSamples));
      bins = receiver.transform_symbol(body);
    }
    std::vector<CplxF> eq(rsp::phy::kDataCarriers);
    {
      Scope s("ofdm.equalize");
      CplxF pilot_acc{0.0, 0.0};
      const int pol = rsp::phy::pilot_polarity(sym);
      const double pv[4] = {1.0, 1.0, 1.0, -1.0};
      const auto& pc = rsp::phy::pilot_carriers();
      for (int i = 0; i < rsp::phy::kPilotCarriers; ++i) {
        const int bin = (pc[static_cast<std::size_t>(i)] + kOfdmFft) % kOfdmFft;
        const CplxF hk = h[static_cast<std::size_t>(bin)];
        if (std::norm(hk) > 1e-9) {
          pilot_acc += bins[static_cast<std::size_t>(bin)] * std::conj(hk) *
                       (pol * pv[i]);
        }
      }
      const CplxF phase = std::abs(pilot_acc) > 1e-12
                              ? pilot_acc / std::abs(pilot_acc)
                              : CplxF{1.0, 0.0};
      const auto& dc = rsp::phy::data_carriers();
      for (int i = 0; i < rsp::phy::kDataCarriers; ++i) {
        const int bin = (dc[static_cast<std::size_t>(i)] + kOfdmFft) % kOfdmFft;
        const CplxF hk = h[static_cast<std::size_t>(bin)];
        eq[static_cast<std::size_t>(i)] =
            (std::norm(hk) > 1e-9)
                ? bins[static_cast<std::size_t>(bin)] / hk * std::conj(phase)
                : CplxF{0.0, 0.0};
      }
    }
    {
      Scope s("phy.demap");
      auto llr = rsp::phy::soft_demap(eq, mode.mod, 256.0);
      llr = rsp::phy::deinterleave_soft(llr, mode.ncbps,
                                        rsp::phy::bits_per_symbol(mode.mod));
      soft.insert(soft.end(), llr.begin(), llr.end());
    }
    pos += kSymbolSamples;
    ++res.symbols_decoded;
  }

  std::vector<std::int32_t> lattice;
  {
    Scope s("dedhw.depuncture");
    lattice = rsp::dedhw::depuncture(soft, mode.rate);
  }
  const std::size_t n_info = static_cast<std::size_t>(res.symbols_decoded) *
                             static_cast<std::size_t>(mode.ndbps);
  if (n_info < 6) return res;
  std::vector<std::uint8_t> decoded;
  {
    Scope s("dedhw.viterbi");
    const rsp::dedhw::ViterbiDecoder vit;
    decoded = vit.decode(lattice, n_info - 6, true);
  }
  count("dedhw.viterbi.steps", static_cast<long long>(lattice.size() / 2));
  {
    Scope s("dedhw.wlan_descramble");
    rsp::dedhw::WlanScrambler scr(cfg.scramble_seed);
    scr.apply(decoded);
  }
  if (decoded.size() > 16 + n_psdu_bits) {
    res.psdu.assign(decoded.begin() + 16,
                    decoded.begin() + 16 +
                        static_cast<std::ptrdiff_t>(n_psdu_bits));
  } else if (decoded.size() > 16) {
    res.psdu.assign(decoded.begin() + 16, decoded.end());
  }
  return res;
}

/// WlanTrial's scoring of a decoded frame.
TrialResult score_wlan(const WlanFrame& f,
                       const rsp::ofdm::OfdmRxResult& res) {
  TrialResult r;
  r.frames = 1;
  r.bits = f.psdu.size();
  if (!res.preamble_found || res.psdu.size() != f.psdu.size()) {
    r.bit_errors = r.bits;
    r.frame_errors = 1;
    return r;
  }
  for (std::size_t i = 0; i < f.psdu.size(); ++i) {
    r.bit_errors += (res.psdu[i] != f.psdu[i]) ? 1 : 0;
  }
  r.frame_errors = r.bit_errors > 0 ? 1 : 0;
  return r;
}

class WlanLink final : public LinkWorkload {
 public:
  WlanLink(std::uint64_t seed, const Workers& w)
      : LinkWorkload(seed, w, 4 * kWlanSlots, kWlanSlots) {}

  void setup() override {
    // phy::constellation() fills its cache on first use without a lock,
    // and two workers demapping at once in a fresh process can corrupt
    // it.  Fill it on this thread before the workers start.
    for (const auto m :
         {rsp::phy::Modulation::kBpsk, rsp::phy::Modulation::kQpsk,
          rsp::phy::Modulation::kQam16, rsp::phy::Modulation::kQam64}) {
      (void)rsp::phy::constellation(m);
    }
    LinkWorkload::setup();
  }

  void layers(const Fold& f, const Totals& untraced,
              std::vector<Metric>& out) override {
    for (const char* l :
         {"phy.ofdm_tx", "phy.awgn", "ofdm.sync", "ofdm.chan_est", "ofdm.fft",
          "ofdm.equalize", "phy.demap", "dedhw.viterbi", "dedhw.depuncture",
          "dedhw.wlan_descramble"}) {
      out.push_back(self_per_frame(f, l));
    }
    out.push_back(count_per_frame(f, "dedhw.viterbi.steps"));
    farm_layer_metrics(untraced, workers_.farm, out);
  }

  void extras(std::vector<Metric>& out) override {
    LinkWorkload::extras(out);
    out.push_back(Metric::of("decode_identity_tasks",
                             static_cast<double>(identity_checked_), "count"));
  }

  [[nodiscard]] std::string params_json() const override {
    std::string rates;
    for (std::size_t i = 0; i < kWlanSlots; ++i) {
      rates += (i ? ", " : "") + std::to_string(kWlanRates[i]);
    }
    return "\"kernel\": \"farm::kernels::WlanTrial\", \"psdu_bits\": " +
           std::to_string(kWlanPsduBits) + ", \"esn0_db\": " +
           json_number(kWlanEsn0Db) + ", \"mbps_by_task_slot\": [" + rates +
           "], \"chunk_tasks\": " + std::to_string(chunk_) +
           ", \"loop\": \"closed: ScenarioFarm::run over chunks of "
           "independent trials until the window ends\"";
  }

 private:
  [[nodiscard]] rsp::farm::TrialKernel kernel(std::size_t c,
                                              bool traced) const override {
    if (!traced) {
      return [](std::uint64_t s, std::size_t i) { return wlan_params(i)(s); };
    }
    return [this, c](std::uint64_t s, std::size_t i) {
      const Scope root("trial", trace_id(c, i));
      const WlanTrial p = wlan_params(i);
      const WlanFrame f = wlan_frame(p, s);
      return score_wlan(f, traced_wlan_receive(f.capture, p.mbps, p.psdu_bits));
    };
  }

  /// The decomposed decode must equal OfdmReceiver::receive bit for bit.
  void check_traced_chunk(std::size_t c, Verdict& v) override {
    for (std::size_t i = 0; i < chunk_; ++i) {
      const WlanTrial p = wlan_params(i);
      const WlanFrame f =
          wlan_frame(p, rsp::Rng::split(chunk_seed(seed_, c), i));
      const auto mine = traced_wlan_receive(f.capture, p.mbps, p.psdu_bits);
      rsp::ofdm::OfdmRxConfig cfg;
      cfg.mbps = p.mbps;
      const auto ref =
          rsp::ofdm::OfdmReceiver(cfg).receive(f.capture, p.psdu_bits);
      if (mine.psdu != ref.psdu || mine.preamble_found != ref.preamble_found ||
          mine.symbols_decoded != ref.symbols_decoded) {
        v.fail(1, "traced wlan decode of chunk " + std::to_string(c) +
                      " task " + std::to_string(i) +
                      " differs from OfdmReceiver::receive");
      }
      if (!ref.preamble_found) {
        v.fail(1, "wlan task at " + std::to_string(p.mbps) +
                      " Mbit/s lost sync; the workload must run full chains");
      }
      ++identity_checked_;
    }
  }

  std::size_t identity_checked_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rake_link(std::uint64_t seed, const Workers& w) {
  return std::make_unique<RakeLink>(seed, w);
}

std::unique_ptr<Workload> make_wlan_link(std::uint64_t seed, const Workers& w) {
  return std::make_unique<WlanLink>(seed, w);
}

}  // namespace perfbench
