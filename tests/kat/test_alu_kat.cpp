// Known-answer test of the ALU-PAE truth table.
//
// Every differential battery compares two execution paths inside one
// build.  Once those paths share one definition of the arithmetic, a
// change to that definition moves both sides and every differential
// test still passes.  This test pins the answer itself: one FNV-1a
// digest over
//   - every opcode that lowers to CKind::kAlu x {saturate, wrap} x
//     shifts {0, 1, 4, 13, 23}, applied to all pairs of the 24-bit
//     rails, the 12+12 packed rails and seeded words;
//   - counter sequences that wrap at the 24-bit rails and at their
//     modulo;
//   - kAccum and kCAccum dump words that reach their saturation rails,
// computed through four paths: the event-driven interpreter, compiled
// epoch replay, and the generic and dispatched lane-kernel tables.
// Each path must reproduce the same literal.  Change the literal only
// together with a deliberate change to the modelled ALU.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/common/fnv.hpp"
#include "src/common/rng.hpp"
#include "src/common/word.hpp"
#include "src/xpp/builder.hpp"
#include "src/xpp/compiled.hpp"
#include "src/xpp/runner.hpp"
#include "src/xpp/simd.hpp"

namespace rsp::xpp {
namespace {

/// The digest of the whole truth table below, computed before the ALU
/// arithmetic was folded into one definition.
constexpr std::uint64_t kTruthTableDigest = 0xf40d4faf76c7a91eull;

constexpr Word kMax24 = (1 << 23) - 1;
constexpr Word kMin24 = -(1 << 23);

constexpr Opcode kAluOps[] = {
    Opcode::kNop,  Opcode::kAdd,      Opcode::kSub,  Opcode::kMul,
    Opcode::kMulShr, Opcode::kNeg,    Opcode::kAbs,  Opcode::kMin,
    Opcode::kMax,  Opcode::kAnd,      Opcode::kOr,   Opcode::kXor,
    Opcode::kNot,  Opcode::kShl,      Opcode::kShr,  Opcode::kShrRound,
    Opcode::kEq,   Opcode::kNe,       Opcode::kLt,   Opcode::kLe,
    Opcode::kGt,   Opcode::kGe,       Opcode::kMux,  Opcode::kSwap,
    Opcode::kDup,  Opcode::kPack,     Opcode::kUnpack, Opcode::kSel4,
    Opcode::kCAdd, Opcode::kCSub,     Opcode::kCMulShr, Opcode::kCConj,
    Opcode::kCNeg, Opcode::kCRotMj};
constexpr int kShifts[] = {0, 1, 4, 13, 23};
constexpr std::array<Word, 4> kSel4Table = {kMax24, kMin24, -1, 0x123456};

/// Operand words: the 24-bit rails, the 12+12 packed rails, then seeded
/// words over the whole 24-bit range.
std::vector<Word> operand_words() {
  std::vector<Word> w = {0,
                         1,
                         -1,
                         2,
                         kMax24,
                         kMax24 - 1,
                         kMin24,
                         kMin24 + 1,
                         pack_iq(2047, 2047),
                         pack_iq(-2048, -2048),
                         pack_iq(2047, -2048),
                         pack_iq(-2048, 2047),
                         pack_iq(2047, 0),
                         pack_iq(0, -2048),
                         pack_iq(1, -1),
                         pack_iq(-2047, 2046)};
  Rng rng(0xA10A1u);
  for (int i = 0; i < 16; ++i) {
    w.push_back(static_cast<Word>(rng.below(1u << 24)) - (1 << 23));
  }
  return w;
}

/// Operand lanes of one ALU case: a warm-up run of seeded triples (so
/// compiled replay is live before the rails arrive), then every (a, b)
/// pair of operand_words() with c drawn from the same set.
struct Lanes {
  std::vector<Word> a, b, c;
};

const Lanes& alu_lanes() {
  static const Lanes lanes = [] {
    Lanes l;
    const std::vector<Word> w = operand_words();
    Rng rng(0x5EEDu);
    for (int i = 0; i < 64; ++i) {
      l.a.push_back(static_cast<Word>(rng.below(1u << 24)) - (1 << 23));
      l.b.push_back(static_cast<Word>(rng.below(1u << 24)) - (1 << 23));
      l.c.push_back(static_cast<Word>(rng.below(1u << 24)) - (1 << 23));
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      for (std::size_t j = 0; j < w.size(); ++j) {
        l.a.push_back(w[i]);
        l.b.push_back(w[j]);
        l.c.push_back(w[(i * 7 + j * 3 + 5) % w.size()]);
      }
    }
    return l;
  }();
  return lanes;
}

struct CounterCase {
  Word start, step, modulo;
};
constexpr CounterCase kCounterCases[] = {
    {kMax24 - 3, 1, 0},    {kMin24 + 2, -1, 0},    {0, kMax24, 0},
    {kMin24, kMin24, 0},   {-5, 3, 4},             {kMax24, 2, 7},
    {100, -kMax24, 3},     {0, 1, 1},              {kMax24 - 1, kMax24, 5}};
constexpr int kCounterSteps = 48;

/// Accumulator streams: eight data lanes per group, dumped every
/// `period` steps by a counter's wrap flag (the despreader's pattern).
constexpr int kAccumSteps = 168;
constexpr int kAccumPeriods[] = {1, 3, 7};
constexpr int kAccumLanes = 8;

std::vector<Word> accum_stream(bool complex, int lane) {
  std::vector<Word> s(kAccumSteps);
  Rng rng(0xACC0u + static_cast<std::uint64_t>(lane) * 31u +
          (complex ? 7u : 0u));
  for (int t = 0; t < kAccumSteps; ++t) {
    const Word seeded = static_cast<Word>(rng.below(1u << 24)) - (1 << 23);
    const Word hi = complex ? pack_iq(2047, -2048) : kMax24;
    const Word lo = complex ? pack_iq(-2048, 2047) : kMin24;
    switch (lane) {
      case 0: s[t] = hi; break;
      case 1: s[t] = lo; break;
      case 2: s[t] = (t % 2 == 0) ? hi : -1; break;
      case 3: s[t] = (t % 3 == 0) ? lo : hi; break;
      case 4: s[t] = complex ? pack_iq(1024, 1024) : 0x400000; break;
      default: s[t] = seeded; break;
    }
  }
  return s;
}

bool dumps_at(int t, int period) { return t % period == period - 1; }

void mix_words(Fnv1a& h, const std::vector<Word>& v) {
  h.mix(v.size());
  for (const Word w : v) h.mix(static_cast<std::uint32_t>(w));
}

// ---------------------------------------------------------------------------
// Paths 1 and 2: the array itself, interpreted or with compiled replay.
// ---------------------------------------------------------------------------

/// Stream @p feeds through @p cfg on a fresh array and return its
/// output streams (out0, out1 when bound).
std::vector<std::vector<Word>> run_on_array(
    SchedulerKind kind, const Configuration& cfg,
    const std::map<std::string, std::vector<Word>>& feeds,
    const std::map<std::string, std::size_t>& expected) {
  ConfigurationManager mgr({}, kind);
  const RunResult r = run_config(mgr, cfg, feeds, expected);
  if (kind == SchedulerKind::kCompiled) {
    // Replay, not the interpreter, must produce most of the words.
    const CompiledEngine* eng = mgr.sim().compiled_engine();
    EXPECT_NE(eng, nullptr);
    if (eng != nullptr) {
      EXPECT_GT(eng->stats().replayed_cycles, 0) << cfg.name;
      EXPECT_GE(4 * eng->stats().replayed_cycles, 3 * r.cycles) << cfg.name;
    }
  }
  std::vector<std::vector<Word>> outs;
  for (const auto& [name, n] : expected) outs.push_back(r.outputs.at(name));
  return outs;
}

std::uint64_t array_digest(SchedulerKind kind) {
  Fnv1a h;
  const Lanes& l = alu_lanes();
  for (const Opcode op : kAluOps) {
    const OpInfo info = op_info(op);
    for (const bool sat : {true, false}) {
      for (const int shift : kShifts) {
        AluParams p;
        p.saturate = sat;
        p.shift = shift;
        p.table = kSel4Table;
        ConfigBuilder b(std::string("kat_") + opcode_name(op));
        const ObjHandle alu = b.alu("dut", op, p);
        std::map<std::string, std::vector<Word>> feeds;
        const std::vector<Word>* cols[] = {&l.a, &l.b, &l.c};
        for (int i = 0; i < 3; ++i) {
          if (((info.in_mask >> i) & 1u) == 0) continue;
          const std::string name = "in" + std::to_string(i);
          b.connect(b.input(name).out(0), alu.in(i));
          feeds[name] = *cols[i];
        }
        std::map<std::string, std::size_t> expected;
        for (int j = 0; j < 2; ++j) {
          if (((info.out_mask >> j) & 1u) == 0) continue;
          const std::string name = "out" + std::to_string(j);
          b.connect(alu.out(j), b.output(name).in(0));
          expected[name] = l.a.size();
        }
        h.mix(static_cast<std::uint64_t>(op)).mix(sat).mix(
            static_cast<std::uint64_t>(shift));
        for (const auto& out : run_on_array(kind, b.build(), feeds, expected)) {
          mix_words(h, out);
        }
      }
    }
  }

  for (const CounterCase& cc : kCounterCases) {
    ConfigBuilder b("kat_counter");
    const ObjHandle cnt = b.counter("cnt", {cc.start, cc.step, cc.modulo});
    b.connect(cnt.out(0), b.output("out0").in(0));
    b.connect(cnt.out(1), b.output("out1").in(0));
    const std::size_t n = kCounterSteps;
    h.mix(static_cast<std::uint32_t>(cc.start))
        .mix(static_cast<std::uint32_t>(cc.step))
        .mix(static_cast<std::uint32_t>(cc.modulo));
    for (auto out : run_on_array(kind, b.build(), {}, {{"out0", n}, {"out1", n}})) {
      out.resize(n);  // a free-running counter may overshoot the wait
      mix_words(h, out);
    }
  }

  for (const bool complex : {false, true}) {
    const Opcode op = complex ? Opcode::kCAccum : Opcode::kAccum;
    for (const bool sat : {true, false}) {
      if (complex && !sat) continue;  // kCAccum always saturates
      for (const int shift : kShifts) {
        for (const int period : kAccumPeriods) {
          h.mix(static_cast<std::uint64_t>(op)).mix(sat).mix(
              static_cast<std::uint64_t>(shift)).mix(
              static_cast<std::uint64_t>(period));
          for (int lane = 0; lane < kAccumLanes; ++lane) {
            AluParams p;
            p.saturate = sat;
            p.shift = shift;
            ConfigBuilder b("kat_accum");
            const ObjHandle acc = b.alu("acc", op, p);
            const ObjHandle dump = b.counter("dump", {0, 1, period});
            b.connect(b.input("data").out(0), acc.in(0));
            b.connect(dump.out(1), acc.in(1));
            b.connect(acc.out(0), b.output("out0").in(0));
            const std::size_t n =
                static_cast<std::size_t>(kAccumSteps / period);
            const auto outs = run_on_array(
                kind, b.build(),
                {{"data", accum_stream(complex, lane)}},
                {{"out0", n}});
            mix_words(h, outs[0]);
          }
        }
      }
    }
  }
  return h.value();
}

// ---------------------------------------------------------------------------
// Paths 3 and 4: the batched-replay lane kernels.
// ---------------------------------------------------------------------------

std::uint64_t lane_digest(const simd::Kernels& k) {
  Fnv1a h;
  const Lanes& l = alu_lanes();
  const int total = static_cast<int>(l.a.size());
  for (const Opcode op : kAluOps) {
    const OpInfo info = op_info(op);
    for (const bool sat : {true, false}) {
      for (const int shift : kShifts) {
        std::vector<Word> r0(l.a.size()), r1(l.a.size());
        // Uneven chunks exercise both full vectors and scalar tails.
        for (int base = 0, chunk = 1; base < total;
             base += chunk, chunk = (chunk + 6) % simd::kMaxBatchWidth + 1) {
          simd::AluCall q;
          q.op = op;
          q.saturate = sat;
          q.shift = shift;
          q.table = kSel4Table.data();
          q.a = l.a.data() + base;
          q.b = l.b.data() + base;
          q.c = l.c.data() + base;
          q.r0 = r0.data() + base;
          q.r1 = ((info.out_mask >> 1) & 1u) != 0 ? r1.data() + base : nullptr;
          q.n = std::min(chunk, total - base);
          k.alu(q);
        }
        h.mix(static_cast<std::uint64_t>(op)).mix(sat).mix(
            static_cast<std::uint64_t>(shift));
        mix_words(h, r0);
        if (((info.out_mask >> 1) & 1u) != 0) mix_words(h, r1);
      }
    }
  }

  constexpr int kLanes = 11;
  for (const CounterCase& cc : kCounterCases) {
    std::vector<Word> value(kLanes, cc.start), remaining(kLanes, cc.modulo);
    std::vector<Word> o0(kLanes), o1(kLanes), seq0, seq1;
    for (int t = 0; t < kCounterSteps; ++t) {
      k.counter(value.data(), remaining.data(), cc.start, cc.step, cc.modulo,
                o0.data(), o1.data(), kLanes);
      for (int i = 1; i < kLanes; ++i) {
        EXPECT_EQ(o0[i], o0[0]);
        EXPECT_EQ(o1[i], o1[0]);
      }
      seq0.push_back(o0[0]);
      seq1.push_back(o1[0]);
    }
    h.mix(static_cast<std::uint32_t>(cc.start))
        .mix(static_cast<std::uint32_t>(cc.step))
        .mix(static_cast<std::uint32_t>(cc.modulo));
    mix_words(h, seq0);
    mix_words(h, seq1);
  }

  for (const bool complex : {false, true}) {
    const Opcode op = complex ? Opcode::kCAccum : Opcode::kAccum;
    std::vector<std::vector<Word>> data(kAccumLanes);
    for (int lane = 0; lane < kAccumLanes; ++lane) {
      data[lane] = accum_stream(complex, lane);
    }
    for (const bool sat : {true, false}) {
      if (complex && !sat) continue;
      for (const int shift : kShifts) {
        for (const int period : kAccumPeriods) {
          std::vector<Word> acc(kAccumLanes, 0), in(kAccumLanes),
              o0(kAccumLanes);
          std::vector<long long> re(kAccumLanes, 0), im(kAccumLanes, 0);
          std::vector<std::vector<Word>> outs(kAccumLanes);
          for (int t = 0; t < kAccumSteps; ++t) {
            const bool dump = dumps_at(t, period);
            for (int lane = 0; lane < kAccumLanes; ++lane) {
              in[lane] = data[lane][t];
            }
            if (complex) {
              k.caccum(re.data(), im.data(), in.data(), dump, shift,
                       o0.data(), kAccumLanes);
            } else {
              k.accum(acc.data(), in.data(), sat, dump, shift, o0.data(),
                      kAccumLanes);
            }
            if (!dump) continue;
            for (int lane = 0; lane < kAccumLanes; ++lane) {
              outs[lane].push_back(o0[lane]);
            }
          }
          h.mix(static_cast<std::uint64_t>(op)).mix(sat).mix(
              static_cast<std::uint64_t>(shift)).mix(
              static_cast<std::uint64_t>(period));
          for (const auto& out : outs) mix_words(h, out);
        }
      }
    }
  }
  return h.value();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(AluKat, Interpreter) {
  const std::uint64_t d = array_digest(SchedulerKind::kEventDriven);
  EXPECT_EQ(d, kTruthTableDigest) << "interpreter digest " << hex(d);
}

TEST(AluKat, CompiledReplay) {
  const std::uint64_t d = array_digest(SchedulerKind::kCompiled);
  EXPECT_EQ(d, kTruthTableDigest) << "compiled replay digest " << hex(d);
}

TEST(AluKat, GenericLaneKernels) {
  const std::uint64_t d = lane_digest(simd::generic_kernels());
  EXPECT_EQ(d, kTruthTableDigest) << "generic lane digest " << hex(d);
}

TEST(AluKat, DispatchedLaneKernels) {
  const std::uint64_t d = lane_digest(simd::kernels());
  EXPECT_EQ(d, kTruthTableDigest)
      << simd::isa_name() << " lane digest " << hex(d);
}

}  // namespace
}  // namespace rsp::xpp
