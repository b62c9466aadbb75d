// ALU-PAE: the word-granular processing element of the array.
//
// "Each ALU-PAE processes 24 bit words using a DSP-based instruction
// set" (paper, Section 4).  In addition to scalar DSP operations the
// instruction set carries the packed-complex operations the paper's
// block diagrams use as primitive units ("Complex Multiplication",
// "Merge", "Swap", Figures 5-9) operating on 2x12-bit packed words.
#pragma once

#include <array>

#include "src/xpp/object.hpp"

namespace rsp::xpp {

/// Static parameters of an ALU object.
struct AluParams {
  Opcode op = Opcode::kNop;
  int shift = 0;        ///< post-shift for kMulShr/kShl/kShr/kAccum/kCMulShr/kCAccum
  bool saturate = true; ///< saturating (true) or wrapping (false) arithmetic
  std::array<Word, 4> table{};  ///< kSel4 constant table
};

class AluObject final : public Object {
 public:
  AluObject(std::string name, AluParams p)
      : Object(std::move(name), ObjectKind::kAlu), p_(p) {}

  const AluParams& params() const { return p_; }

 protected:
  bool do_fire() override;

 private:
  /// The compiled replayer steps the stateful opcodes (kAccum,
  /// kCAccum, kMergeAlt) on these registers directly, through the same
  /// alu_ops.hpp functions, so armed epochs stay bit-exact.
  friend class CompiledProgram;
  friend class BatchedReplayEngine;
  friend class CanonicalProgram;
  friend class SnapshotAccess;  ///< bit-exact save/restore (snapshot.hpp)

  // Stateful-opcode registers.
  Word acc_ = 0;                // kAccum
  long long cacc_re_ = 0;       // kCAccum
  long long cacc_im_ = 0;
  bool merge_toggle_ = false;   // kMergeAlt

  AluParams p_;
};

}  // namespace rsp::xpp
