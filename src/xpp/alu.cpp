#include "src/xpp/alu.hpp"

#include "src/xpp/alu_ops.hpp"

namespace rsp::xpp {

bool AluObject::do_fire() {
  const Opcode op = p_.op;

  // Stream-steering opcodes have bespoke readiness rules.
  switch (op) {
    case Opcode::kDemux: {
      if (!in_ready(0) || !in_ready(1)) return false;
      const int sel = in_peek(0) != 0 ? 1 : 0;
      if (!out_ready(sel)) return false;
      out_write(sel, in_peek(1));
      in_consume(0);
      in_consume(1);
      return true;
    }
    case Opcode::kMergeAlt: {
      const int src = merge_toggle_ ? 1 : 0;
      if (!in_ready(src) || !out_ready(0)) return false;
      out_write(0, in_peek(src));
      in_consume(src);
      merge_toggle_ = !merge_toggle_;
      return true;
    }
    case Opcode::kMergeSel: {
      if (!in_ready(0)) return false;
      const int src = in_peek(0) != 0 ? 2 : 1;
      if (!in_ready(src) || !out_ready(0)) return false;
      out_write(0, in_peek(src));
      in_consume(0);
      in_consume(src);
      return true;
    }
    case Opcode::kGate: {
      if (!in_ready(0) || !in_ready(1)) return false;
      const bool pass = in_peek(1) != 0;
      if (pass && !out_ready(0)) return false;
      if (pass) out_write(0, in_peek(0));
      in_consume(0);
      in_consume(1);
      return true;
    }
    case Opcode::kAccum:
    case Opcode::kCAccum: {
      if (!in_ready(0) || !in_ready(1)) return false;
      const bool dump = in_peek(1) != 0;
      if (dump && !out_ready(0)) return false;
      if (op == Opcode::kAccum) {
        acc_ = alu::accum_add(acc_, in_peek(0), p_.saturate);
        if (dump) out_write(0, alu::accum_dump(acc_, p_.shift, p_.saturate));
        if (dump) acc_ = 0;
      } else {
        alu::caccum_add(cacc_re_, cacc_im_, in_peek(0));
        if (dump) out_write(0, alu::caccum_dump(cacc_re_, cacc_im_, p_.shift));
        if (dump) cacc_re_ = cacc_im_ = 0;
      }
      in_consume(0);
      in_consume(1);
      return true;
    }
    default:
      break;
  }

  // Generic path: all declared inputs ready, all declared outputs free.
  const OpInfo info = op_info(op);
  for (int i = 0; i < kMaxIn; ++i) {
    if ((info.in_mask >> i) & 1u) {
      if (!in_ready(i)) return false;
    }
  }
  for (int i = 0; i < kMaxOut; ++i) {
    if ((info.out_mask >> i) & 1u) {
      if (!out_ready(i)) return false;
    }
  }

  const Word a = ((info.in_mask >> 0) & 1u) ? in_peek(0) : 0;
  const Word b = ((info.in_mask >> 1) & 1u) ? in_peek(1) : 0;
  const Word c = ((info.in_mask >> 2) & 1u) ? in_peek(2) : 0;

  const alu::Result r =
      alu::eval(op, a, b, c, {p_.saturate, p_.shift, p_.table.data()});

  for (int i = 0; i < kMaxIn; ++i) {
    if ((info.in_mask >> i) & 1u) in_consume(i);
  }
  if ((info.out_mask >> 0) & 1u) out_write(0, r.r0);
  if ((info.out_mask >> 1) & 1u) out_write(1, r.r1);
  return true;
}

}  // namespace rsp::xpp
