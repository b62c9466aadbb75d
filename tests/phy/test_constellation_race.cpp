// First use of the demapper's constellation tables from several threads
// at once.  This executable holds this one test, so the tables are cold
// when it starts: every thread's first demap is a first use.  Runs
// under the farm label, so the ThreadSanitizer stage covers it.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "src/phy/modulation.hpp"

namespace rsp::phy {
namespace {

TEST(ConstellationFirstUse, ConcurrentDemapsAgree) {
  constexpr Modulation kMods[] = {Modulation::kBpsk, Modulation::kQpsk,
                                  Modulation::kQam16, Modulation::kQam64};
  // Every bit word of every scheme, once.
  std::vector<std::vector<std::uint8_t>> words(4);
  for (int m = 0; m < 4; ++m) {
    const int bps = bits_per_symbol(kMods[m]);
    for (unsigned w = 0; w < (1u << bps); ++w) {
      for (int b = bps - 1; b >= 0; --b) {
        words[m].push_back(static_cast<std::uint8_t>((w >> b) & 1u));
      }
    }
  }

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::vector<std::vector<std::uint8_t>>> hard(kThreads);
  std::vector<std::vector<std::vector<std::int32_t>>> soft(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      hard[t].resize(4);
      soft[t].resize(4);
      start.arrive_and_wait();
      // Pairs of threads start on the same scheme.
      for (int i = 0; i < 4; ++i) {
        const int m = (t + i) % 4;
        const auto symbols = modulate(words[m], kMods[m]);
        hard[t][m] = hard_demap(symbols, kMods[m]);
        soft[t][m] = soft_demap(symbols, kMods[m]);
      }
    });
  }
  for (auto& th : pool) th.join();

  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(constellation(kMods[m]).size(),
              std::size_t{1} << bits_per_symbol(kMods[m]));
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(hard[t][m], words[m]) << modulation_name(kMods[m]);
      EXPECT_EQ(soft[t][m], soft[0][m]) << modulation_name(kMods[m]);
    }
  }
}

}  // namespace
}  // namespace rsp::phy
