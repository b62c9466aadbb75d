// ALU-PAE value semantics: the one definition of the words each ALU-PAE
// operation computes on the 24-bit datapath (paper, Section 4).  The
// interpreter (AluObject / CounterObject::do_fire), compiled replay
// (CompiledProgram::exec_phase) and the lane kernels (simd_lanes.inc)
// compute here and keep only readiness, tokens and registers.
// eval<Op> takes the opcode as a template parameter, so a lane loop is
// one straight-line body per opcode, which the vectorizer needs; visit()
// is the one runtime opcode-to-template switch.  Everything is forced
// inline: no call per op on the scalar paths, and no out-of-line AVX2
// copy the linker could hand to the baseline path.  The known answer in
// tests/kat/test_alu_kat.cpp pins the truth table.
#pragma once

#include <cstdint>
#include <type_traits>

#include "src/common/cplx.hpp"
#include "src/common/word.hpp"
#include "src/xpp/types.hpp"

namespace rsp::xpp::alu {

/// Static operands of an ALU-PAE: AluParams without the opcode.
struct Mode {
  bool saturate = true;         ///< saturating (true) or wrapping arithmetic
  int shift = 0;                ///< post-shift of the shifting opcodes
  const Word* table = nullptr;  ///< kSel4's four table words
};

/// The words an opcode drives on out0 and out1 (0 where it has none).
struct Result {
  Word r0 = 0;
  Word r1 = 0;
};

/// Opcodes that drive out1 as well as out0.
template <Opcode Op>
inline constexpr bool kTwoResults =
    Op == Opcode::kSwap || Op == Opcode::kDup || Op == Opcode::kUnpack;

/// The datapath's overflow rule: clamp to the 24-bit rails or wrap.
[[gnu::always_inline]] constexpr Word clamp(long long v, bool sat) {
  return sat ? saturate(v, kWordBits) : wrap24(v);
}

/// A packed-complex result, each 12-bit half clamped to its rails.
[[gnu::always_inline]] constexpr Word pack_sat(CplxI z) {
  return pack_cplx(sat_cplx(z, kHalfBits));
}

template <Opcode>
inline constexpr bool kNotAlu = false;

/// The words kAlu opcode @p Op drives for inputs (a, b, c); inputs it
/// does not read are ignored.
template <Opcode Op>
[[gnu::always_inline]] constexpr Result eval(Word a, Word b, Word c,
                                             const Mode& m) {
  using O = Opcode;
  [[maybe_unused]] const long long wa = a;
  [[maybe_unused]] const bool sat = m.saturate;
  if constexpr (Op == O::kNop) return {a};
  else if constexpr (Op == O::kAdd) return {clamp(wa + b, sat)};
  else if constexpr (Op == O::kSub) return {clamp(wa - b, sat)};
  else if constexpr (Op == O::kMul) return {clamp(wa * b, sat)};
  else if constexpr (Op == O::kMulShr) {
    return {clamp(shr_round(saturate(wa * b, 31), m.shift), sat)};
  }
  else if constexpr (Op == O::kNeg) return {clamp(-wa, sat)};
  else if constexpr (Op == O::kAbs) return {clamp(a < 0 ? -wa : wa, sat)};
  else if constexpr (Op == O::kMin) return {a < b ? a : b};
  else if constexpr (Op == O::kMax) return {a > b ? a : b};
  else if constexpr (Op == O::kAnd) return {wrap24(a & b)};
  else if constexpr (Op == O::kOr) return {wrap24(a | b)};
  else if constexpr (Op == O::kXor) return {wrap24(a ^ b)};
  else if constexpr (Op == O::kNot) return {wrap24(~a)};
  else if constexpr (Op == O::kShl) return {clamp(wa << m.shift, sat)};
  else if constexpr (Op == O::kShr) return {a >> m.shift};
  else if constexpr (Op == O::kShrRound) return {shr_round(a, m.shift)};
  else if constexpr (Op == O::kEq) return {a == b};
  else if constexpr (Op == O::kNe) return {a != b};
  else if constexpr (Op == O::kLt) return {a < b};
  else if constexpr (Op == O::kLe) return {a <= b};
  else if constexpr (Op == O::kGt) return {a > b};
  else if constexpr (Op == O::kGe) return {a >= b};
  else if constexpr (Op == O::kMux) return {a != 0 ? c : b};
  else if constexpr (Op == O::kSwap) return {a != 0 ? c : b, a != 0 ? b : c};
  else if constexpr (Op == O::kDup) return {a, a};
  else if constexpr (Op == O::kPack) return {pack_iq(a, b)};
  else if constexpr (Op == O::kUnpack) return {unpack_i(a), unpack_q(a)};
  else if constexpr (Op == O::kSel4) return {m.table[a & 3]};
  else if constexpr (Op == O::kCAdd) {
    return {pack_sat(unpack_cplx(a) + unpack_cplx(b))};
  }
  else if constexpr (Op == O::kCSub) {
    return {pack_sat(unpack_cplx(a) - unpack_cplx(b))};
  }
  else if constexpr (Op == O::kCMulShr) {
    return {pack_sat(shr_round(unpack_cplx(a) * unpack_cplx(b), m.shift))};
  }
  else if constexpr (Op == O::kCConj) return {pack_cplx(unpack_cplx(a).conj())};
  else if constexpr (Op == O::kCNeg) {
    const CplxI z = unpack_cplx(a);
    return {pack_sat({-z.re, -z.im})};
  }
  else if constexpr (Op == O::kCRotMj) {  // multiply by -j
    const CplxI z = unpack_cplx(a);
    return {pack_sat({z.im, -z.re})};
  }
  else static_assert(kNotAlu<Op>, "opcode does not lower to CKind::kAlu");
}

template <Opcode Op>
using Tag = std::integral_constant<Opcode, Op>;

/// Call @p f with Tag<op> when @p op lowers to CKind::kAlu: the one
/// runtime opcode-to-template switch.  For the steering and stateful
/// opcodes, which never lower to kAlu, @p f is not called and the
/// result is value-initialized.
template <class F>
[[gnu::always_inline]] constexpr auto visit(Opcode op, F&& f) {
  using O = Opcode;
  switch (op) {
    case O::kNop:      return f(Tag<O::kNop>{});
    case O::kAdd:      return f(Tag<O::kAdd>{});
    case O::kSub:      return f(Tag<O::kSub>{});
    case O::kMul:      return f(Tag<O::kMul>{});
    case O::kMulShr:   return f(Tag<O::kMulShr>{});
    case O::kNeg:      return f(Tag<O::kNeg>{});
    case O::kAbs:      return f(Tag<O::kAbs>{});
    case O::kMin:      return f(Tag<O::kMin>{});
    case O::kMax:      return f(Tag<O::kMax>{});
    case O::kAnd:      return f(Tag<O::kAnd>{});
    case O::kOr:       return f(Tag<O::kOr>{});
    case O::kXor:      return f(Tag<O::kXor>{});
    case O::kNot:      return f(Tag<O::kNot>{});
    case O::kShl:      return f(Tag<O::kShl>{});
    case O::kShr:      return f(Tag<O::kShr>{});
    case O::kShrRound: return f(Tag<O::kShrRound>{});
    case O::kEq:       return f(Tag<O::kEq>{});
    case O::kNe:       return f(Tag<O::kNe>{});
    case O::kLt:       return f(Tag<O::kLt>{});
    case O::kLe:       return f(Tag<O::kLe>{});
    case O::kGt:       return f(Tag<O::kGt>{});
    case O::kGe:       return f(Tag<O::kGe>{});
    case O::kMux:      return f(Tag<O::kMux>{});
    case O::kSwap:     return f(Tag<O::kSwap>{});
    case O::kDup:      return f(Tag<O::kDup>{});
    case O::kPack:     return f(Tag<O::kPack>{});
    case O::kUnpack:   return f(Tag<O::kUnpack>{});
    case O::kSel4:     return f(Tag<O::kSel4>{});
    case O::kCAdd:     return f(Tag<O::kCAdd>{});
    case O::kCSub:     return f(Tag<O::kCSub>{});
    case O::kCMulShr:  return f(Tag<O::kCMulShr>{});
    case O::kCConj:    return f(Tag<O::kCConj>{});
    case O::kCNeg:     return f(Tag<O::kCNeg>{});
    case O::kCRotMj:   return f(Tag<O::kCRotMj>{});
    case O::kDemux: case O::kMergeAlt: case O::kMergeSel: case O::kGate:
    case O::kAccum: case O::kCAccum: break;
  }
  return decltype(f(Tag<O::kNop>{}))();
}

/// eval<Op> for an opcode known only at run time (the scalar paths).
[[gnu::always_inline]] constexpr Result eval(Opcode op, Word a, Word b,
                                             Word c, const Mode& m) {
  return visit(op, [&](auto t) {
    return eval<decltype(t)::value>(a, b, c, m);
  });
}

/// kAccum: accumulate on the datapath, and the post-shifted dump word.
[[gnu::always_inline]] constexpr Word accum_add(Word acc, Word in, bool sat) {
  return clamp(static_cast<long long>(acc) + in, sat);
}
[[gnu::always_inline]] constexpr Word accum_dump(Word acc, int shift,
                                                 bool sat) {
  return clamp(shr_round(acc, shift), sat);
}

/// kCAccum: accumulate into 64-bit (re, im) registers; each dump half is
/// clamped to 31 bits, post-shifted and saturated to 12 bits.
[[gnu::always_inline]] constexpr void caccum_add(long long& re, long long& im,
                                                 Word in) {
  re += unpack_i(in);
  im += unpack_q(in);
}
[[gnu::always_inline]] constexpr Word caccum_half(long long v, int shift) {
  return saturate(shr_round(saturate(v, 31), shift), kHalfBits);
}
[[gnu::always_inline]] constexpr Word caccum_dump(long long re, long long im,
                                                  int shift) {
  return pack_iq(caccum_half(re, shift), caccum_half(im, shift));
}

/// One counter fire on its registers (value, remaining); the caller
/// emits value on out0 first.  Returns the out1 word: 1 on the wrapping
/// step, which reloads (start, modulo); otherwise value steps on the
/// datapath and, with a modulo, remaining counts down.
[[gnu::always_inline]] constexpr Word counter_step(Word& value, Word& remaining,
                                                   Word start, Word step,
                                                   Word modulo) {
  const bool wraps = modulo > 0 && remaining == 1;
  const Word stepped = wrap24(static_cast<long long>(value) + step);
  value = wraps ? start : stepped;
  if (modulo > 0) remaining = wraps ? modulo : remaining - 1;
  return wraps ? 1 : 0;
}

}  // namespace rsp::xpp::alu
