// Parameterized boundary sweep: saturating vs. wrapping arithmetic at
// the 24-bit datapath edges, for every arithmetic opcode.
#include <gtest/gtest.h>

#include "src/common/cplx.hpp"
#include "src/common/word.hpp"
#include "tests/xpp/harness.hpp"

namespace rsp::xpp {
namespace {

using testing::eval_op;

struct BoundaryCase {
  Opcode op;
  Word a;
  Word b;
  long long exact;  // infinite-precision result
};

// Names each case by its operands ("ADD_8388607_1"), so the test names
// stay the same from one build to the next.
void PrintTo(const BoundaryCase& c, std::ostream* os) {
  *os << opcode_name(c.op) << "_" << c.a << "_" << c.b;
}

class AluBoundaries : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(AluBoundaries, SaturatingClampsAtRails) {
  const auto& c = GetParam();
  AluParams sat;
  sat.saturate = true;
  const auto out = eval_op(c.op, sat, {{c.a}, {c.b}}, 1);
  EXPECT_EQ(out[0], saturate(c.exact, kWordBits))
      << opcode_name(c.op) << "(" << c.a << ", " << c.b << ")";
}

TEST_P(AluBoundaries, WrappingWrapsModulo24Bits) {
  const auto& c = GetParam();
  AluParams wrap;
  wrap.saturate = false;
  const auto out = eval_op(c.op, wrap, {{c.a}, {c.b}}, 1);
  EXPECT_EQ(out[0], wrap24(c.exact))
      << opcode_name(c.op) << "(" << c.a << ", " << c.b << ")";
}

constexpr Word kMax = 0x7FFFFF;
constexpr Word kMin = -0x800000;

INSTANTIATE_TEST_SUITE_P(
    Rails, AluBoundaries,
    ::testing::Values(
        BoundaryCase{Opcode::kAdd, kMax, 1, static_cast<long long>(kMax) + 1},
        BoundaryCase{Opcode::kAdd, kMax, kMax, 2LL * kMax},
        BoundaryCase{Opcode::kAdd, kMin, -1, static_cast<long long>(kMin) - 1},
        BoundaryCase{Opcode::kAdd, kMin, kMin, 2LL * kMin},
        BoundaryCase{Opcode::kAdd, 100, -100, 0},
        BoundaryCase{Opcode::kSub, kMin, 1, static_cast<long long>(kMin) - 1},
        BoundaryCase{Opcode::kSub, kMax, -1, static_cast<long long>(kMax) + 1},
        BoundaryCase{Opcode::kSub, kMax, kMin,
                     static_cast<long long>(kMax) - kMin},
        BoundaryCase{Opcode::kMul, 4096, 4096, 4096LL * 4096},
        BoundaryCase{Opcode::kMul, -4096, 4096, -4096LL * 4096},
        BoundaryCase{Opcode::kMul, kMax, 2, 2LL * kMax},
        BoundaryCase{Opcode::kMul, kMin, -1, -static_cast<long long>(kMin)},
        BoundaryCase{Opcode::kMul, 0, kMin, 0},
        BoundaryCase{Opcode::kNeg, kMin, 0, -static_cast<long long>(kMin)},
        BoundaryCase{Opcode::kAbs, kMin, 0, -static_cast<long long>(kMin)}));

TEST(AluBoundariesExtra, ShiftLeftSaturatesOrWraps) {
  AluParams p;
  p.shift = 4;
  p.saturate = true;
  EXPECT_EQ(eval_op(Opcode::kShl, p, {{0x100000}}, 1)[0], 0x7FFFFF);
  p.saturate = false;
  EXPECT_EQ(eval_op(Opcode::kShl, p, {{0x100000}}, 1)[0],
            wrap24(0x100000LL << 4));
}

TEST(AluBoundariesExtra, PackedComplexRails) {
  // Per-component 12-bit saturation on the packed ops.
  AluParams p;
  const Word a = pack_cplx({2047, -2048});
  EXPECT_EQ(eval_op(Opcode::kCAdd, p, {{a}, {a}}, 1)[0],
            pack_cplx({2047, -2048}));
  EXPECT_EQ(eval_op(Opcode::kCNeg, p, {{a}}, 1)[0],
            pack_cplx({-2047, 2047}))
      << "negating -2048 saturates to +2047";
  p.shift = 0;
  EXPECT_EQ(eval_op(Opcode::kCMulShr, p,
                    {{pack_cplx({2047, 0})}, {pack_cplx({2047, 0})}}, 1)[0],
            pack_cplx({2047, 0}))
      << "2047^2 >> 0 saturates per component";
}

}  // namespace
}  // namespace rsp::xpp
