// Link-level sanity against closed-form theory: uncoded BER over AWGN
// must track the Q-function predictions within Monte-Carlo tolerance.
#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/phy/modulation.hpp"

namespace rsp::phy {
namespace {

double qfunc(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double measured_ber(Modulation m, double esn0_db, std::size_t n_bits,
                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bits(n_bits);
  for (auto& b : bits) b = rng.bit() ? 1 : 0;
  const auto tx = modulate(bits, m);
  const double n0 = std::pow(10.0, -esn0_db / 10.0);
  std::vector<CplxF> rx(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    rx[i] = tx[i] + rng.cgaussian(n0);
  }
  const auto decided = hard_demap(rx, m);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    errors += (decided[i] != bits[i]) ? 1 : 0;
  }
  return static_cast<double>(errors) / static_cast<double>(n_bits);
}

struct TheoryPoint {
  Modulation mod;
  double esn0_db;
};

// Names each point by scheme and SNR ("BPSK_4dB"), so the test names
// stay the same from one build to the next.
void PrintTo(const TheoryPoint& p, std::ostream* os) {
  *os << modulation_name(p.mod) << "_" << p.esn0_db << "dB";
}

class AwgnTheory : public ::testing::TestWithParam<TheoryPoint> {};

TEST_P(AwgnTheory, BerMatchesQFunction) {
  const auto [mod, esn0_db] = GetParam();
  const double esn0 = std::pow(10.0, esn0_db / 10.0);
  double theory = 0.0;
  switch (mod) {
    case Modulation::kBpsk:
      // BPSK on the I rail only: Eb = Es, d = sqrt(2 Es/N0).
      theory = qfunc(std::sqrt(2.0 * esn0));
      break;
    case Modulation::kQpsk:
      // Per-bit error rate of Gray QPSK: Q(sqrt(Es/N0)).
      theory = qfunc(std::sqrt(esn0));
      break;
    case Modulation::kQam16:
      // Gray 16-QAM approximation: (3/4) Q(sqrt(Es/N0 / 5)).
      theory = 0.75 * qfunc(std::sqrt(esn0 / 5.0));
      break;
    case Modulation::kQam64:
      // Gray 64-QAM approximation: (7/12) Q(sqrt(Es/N0 / 21)).
      theory = 7.0 / 12.0 * qfunc(std::sqrt(esn0 / 21.0));
      break;
  }
  const double measured = measured_ber(mod, esn0_db, 120000, 42);
  EXPECT_NEAR(measured, theory, std::max(0.25 * theory, 6e-4))
      << modulation_name(mod) << " @ " << esn0_db << " dB (theory " << theory
      << ")";
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, AwgnTheory,
    ::testing::Values(TheoryPoint{Modulation::kBpsk, 4.0},
                      TheoryPoint{Modulation::kBpsk, 7.0},
                      TheoryPoint{Modulation::kQpsk, 7.0},
                      TheoryPoint{Modulation::kQpsk, 10.0},
                      TheoryPoint{Modulation::kQam16, 14.0},
                      TheoryPoint{Modulation::kQam64, 20.0}));

TEST(AwgnTheoryExtra, BerMonotonicInSnr) {
  double prev = 1.0;
  for (const double esn0 : {0.0, 3.0, 6.0, 9.0}) {
    const double b = measured_ber(Modulation::kQpsk, esn0, 40000, 7);
    EXPECT_LE(b, prev + 1e-3);
    prev = b;
  }
}

}  // namespace
}  // namespace rsp::phy
