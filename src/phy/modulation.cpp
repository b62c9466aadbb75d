#include "src/phy/modulation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rsp::phy {
namespace {

// Per-axis Gray mappings of IEEE 802.11a Table 17-x.
constexpr std::array<double, 2> kAxis1 = {-1.0, 1.0};
// (b0) -> level for BPSK/QPSK axes: 0 -> -1, 1 -> +1.
constexpr std::array<double, 4> kAxis16 = {-3.0, -1.0, 3.0, 1.0};
// (b0 b1): 00 -> -3, 01 -> -1, 10 -> 3, 11 -> 1.
constexpr std::array<double, 8> kAxis64 = {-7.0, -5.0, -1.0, -3.0,
                                           7.0,  5.0,  1.0,  3.0};
// (b0 b1 b2): 000->-7 001->-5 011->-3 010->-1 110->1 111->3 101->5 100->7.

double kmod(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:  return 1.0;
    case Modulation::kQpsk:  return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  return 1.0;
}

CplxF map_word(unsigned word, Modulation m) {
  const double k = kmod(m);
  switch (m) {
    case Modulation::kBpsk:
      return {k * kAxis1[word & 1u], 0.0};
    case Modulation::kQpsk:
      return {k * kAxis1[(word >> 1) & 1u], k * kAxis1[word & 1u]};
    case Modulation::kQam16:
      return {k * kAxis16[(word >> 2) & 3u], k * kAxis16[word & 3u]};
    case Modulation::kQam64:
      return {k * kAxis64[(word >> 3) & 7u], k * kAxis64[word & 7u]};
  }
  return {};
}

}  // namespace

const char* modulation_name(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:  return "BPSK";
    case Modulation::kQpsk:  return "QPSK";
    case Modulation::kQam16: return "16-QAM";
    case Modulation::kQam64: return "64-QAM";
  }
  return "?";
}

const std::vector<CplxF>& constellation(Modulation m) {
  // All four tables are built by one static initializer, which C++
  // runs exactly once even when several threads demap at first use.
  static const std::array<std::vector<CplxF>, 4> tables = [] {
    std::array<std::vector<CplxF>, 4> t;
    for (const Modulation s : {Modulation::kBpsk, Modulation::kQpsk,
                               Modulation::kQam16, Modulation::kQam64}) {
      auto& c = t[static_cast<std::size_t>(s)];
      for (unsigned w = 0; w < (1u << bits_per_symbol(s)); ++w) {
        c.push_back(map_word(w, s));
      }
    }
    return t;
  }();
  return tables[static_cast<std::size_t>(m)];
}

std::vector<CplxF> modulate(const std::vector<std::uint8_t>& bits,
                            Modulation m) {
  const int bps = bits_per_symbol(m);
  if (bits.size() % static_cast<std::size_t>(bps) != 0) {
    throw std::invalid_argument("modulate: bit count not divisible");
  }
  std::vector<CplxF> out;
  out.reserve(bits.size() / static_cast<std::size_t>(bps));
  for (std::size_t i = 0; i < bits.size(); i += static_cast<std::size_t>(bps)) {
    unsigned w = 0;
    for (int b = 0; b < bps; ++b) {
      w = (w << 1) | (bits[i + static_cast<std::size_t>(b)] & 1u);
    }
    out.push_back(map_word(w, m));
  }
  return out;
}

std::vector<std::int32_t> soft_demap(const std::vector<CplxF>& symbols,
                                     Modulation m, double scale) {
  const int bps = bits_per_symbol(m);
  const auto& points = constellation(m);
  std::vector<std::int32_t> out;
  out.reserve(symbols.size() * static_cast<std::size_t>(bps));
  for (const auto& s : symbols) {
    for (int bit = bps - 1; bit >= 0; --bit) {
      double best0 = std::numeric_limits<double>::max();
      double best1 = best0;
      for (std::size_t w = 0; w < points.size(); ++w) {
        const double d = std::norm(s - points[w]);
        if ((w >> bit) & 1u) {
          best1 = std::min(best1, d);
        } else {
          best0 = std::min(best0, d);
        }
      }
      const double llr = scale * (best0 - best1);
      out.push_back(static_cast<std::int32_t>(
          std::clamp(llr, -1048576.0, 1048576.0)));
    }
  }
  return out;
}

std::vector<std::uint8_t> hard_demap(const std::vector<CplxF>& symbols,
                                     Modulation m) {
  const int bps = bits_per_symbol(m);
  const auto& points = constellation(m);
  std::vector<std::uint8_t> out;
  out.reserve(symbols.size() * static_cast<std::size_t>(bps));
  for (const auto& s : symbols) {
    std::size_t best = 0;
    double bestd = std::numeric_limits<double>::max();
    for (std::size_t w = 0; w < points.size(); ++w) {
      const double d = std::norm(s - points[w]);
      if (d < bestd) {
        bestd = d;
        best = w;
      }
    }
    for (int bit = bps - 1; bit >= 0; --bit) {
      out.push_back(static_cast<std::uint8_t>((best >> bit) & 1u));
    }
  }
  return out;
}

}  // namespace rsp::phy
