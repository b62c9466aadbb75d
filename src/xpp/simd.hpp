// Portable SIMD substrate for batched cross-instance epoch replay.
//
// The batched replay engine (src/xpp/batch.hpp) lays N terminals'
// net-slot values out as struct-of-instance-arrays and executes each
// compiled op across all lanes at once.  This header is the only
// ISA-facing surface: a table of lane-loop kernels covering the
// vector-friendly op kinds (generic ALU, counter, accumulators, guard
// mask evaluation), selected once at startup.
//
// Dispatch strategy: the kernels are plain lane loops around the
// ALU-PAE definition in src/xpp/alu_ops.hpp, the one the interpreter and
// compiled replay call, so bit-identity holds by construction on every
// backend.  The loops live in simd_lanes.inc and are compiled twice:
//
//   simd.cpp       baseline TU, built with the project flags.  The
//                  compiler auto-vectorizes the loops for the build's
//                  default ISA (SSE2 on x86-64, NEON on aarch64); with
//                  RSP_SIMD=off the table reports itself as "scalar".
//   simd_avx2.cpp  same loops compiled with -mavx2 when the compiler
//                  supports it; selected at runtime only when the CPU
//                  actually has AVX2 (and RSP_SIMD / the RSP_SIMD env
//                  var doesn't say "off").
//
// A kernel never touches simulator objects: callers gather per-lane
// state (net values, counter registers, accumulators) into contiguous
// arrays, run the kernels, and scatter back.
#pragma once

#include <cstdint>

#include "src/xpp/types.hpp"

namespace rsp::xpp::simd {

/// Hard cap on lanes per batch: guard results are 32-bit lane masks.
inline constexpr int kMaxBatchWidth = 32;

/// One generic-ALU op over n lanes.  Input pointers are never null
/// (the batch engine substitutes a zero column for unread ports, the
/// same "missing input reads as 0" rule as the scalar replay); a null
/// result pointer discards that output.
struct AluCall {
  Opcode op = Opcode::kNop;
  bool saturate = true;
  int shift = 0;
  const Word* table = nullptr;  ///< kSel4 routing table (4 entries)
  const Word* a = nullptr;
  const Word* b = nullptr;
  const Word* c = nullptr;
  Word* r0 = nullptr;
  Word* r1 = nullptr;
  int n = 0;
};

/// The lane-kernel table.  All state arrays are lane-indexed [0, n).
struct Kernels {
  void (*alu)(const AluCall& q) = nullptr;
  /// Counter replay: o0 gets the pre-update value, o1 the wrap flag;
  /// value/remaining are per-lane registers, params are shared (lanes
  /// in a batch run the same program, hence identical CounterParams).
  void (*counter)(Word* value, Word* remaining, Word start, Word step,
                  Word modulo, Word* o0, Word* o1, int n) = nullptr;
  /// kAccum with compile-pinned dump flag: accumulate always, then
  /// dump (stage + clear) when the flag says so.
  void (*accum)(Word* acc, const Word* in, bool saturate, bool dump,
                int shift, Word* o0, int n) = nullptr;
  /// kCAccum: packed-complex accumulate into 64-bit per-lane parts.
  void (*caccum)(long long* re, long long* im, const Word* in, bool dump,
                 int shift, Word* o0, int n) = nullptr;
  /// kValueTruth guard over n lanes: bit i set == lane i FAILED the
  /// guard ((v[i] != 0) != expect).
  std::uint32_t (*fail_mask)(const Word* v, bool expect, int n) = nullptr;
};

/// Best kernel table for this build + CPU (+ RSP_SIMD env override).
[[nodiscard]] const Kernels& kernels();

/// The baseline table, always available — differential tests compare
/// the dispatched table against this one lane by lane.
[[nodiscard]] const Kernels& generic_kernels();

/// Name of the selected backend: "avx2", "sse2", "neon" or "scalar".
[[nodiscard]] const char* isa_name();

/// Words per native vector register of the selected backend (8 for
/// AVX2, 4 for SSE2/NEON, 1 for scalar).  Batches wider than this
/// still work — the lane loops just run more vector iterations.
[[nodiscard]] int native_lane_width();

}  // namespace rsp::xpp::simd
