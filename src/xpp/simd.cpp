// Baseline SIMD backend + runtime dispatch.
//
// The lane loops in simd_lanes.inc compile here with the project's
// default flags, so this TU's kernels use whatever the baseline ISA
// offers (SSE2 is part of the x86-64 ABI; NEON of aarch64).  An AVX2
// variant of the same loops lives in simd_avx2.cpp; dispatch() picks
// it at startup when the compiler could build it, the CPU reports the
// feature, and neither the RSP_SIMD=off build option nor the RSP_SIMD
// environment variable vetoes it.
#include "src/xpp/simd.hpp"

#include <cstdlib>
#include <cstring>

#include "src/xpp/alu_ops.hpp"

namespace rsp::xpp::simd {

namespace baseline {
#include "src/xpp/simd_lanes.inc"
}  // namespace baseline

namespace detail {
/// Defined in simd_avx2.cpp; nullptr when that TU could not be built
/// with AVX2 (unsupported compiler flag or RSP_SIMD=off).
const Kernels* avx2_kernels();
}  // namespace detail

namespace {

struct Backend {
  const Kernels* k = nullptr;
  const char* name = "scalar";
  int width = 1;
};

Backend pick() {
  Backend b;
  b.k = &baseline::kTable;
#if defined(RSP_SIMD_OFF)
  b.name = "scalar";
  b.width = 1;
  return b;
#else
  const char* env = std::getenv("RSP_SIMD");
  const bool veto = env != nullptr && std::strcmp(env, "off") == 0;
#if defined(__x86_64__) || defined(__i386__)
  if (!veto && detail::avx2_kernels() != nullptr &&
      __builtin_cpu_supports("avx2")) {
    b.k = detail::avx2_kernels();
    b.name = "avx2";
    b.width = 8;
    return b;
  }
  b.name = "sse2";
  b.width = 4;
#elif defined(__ARM_NEON) || defined(__aarch64__)
  b.name = "neon";
  b.width = 4;
#else
  b.name = "scalar";
  b.width = 1;
#endif
  if (veto) {
    b.name = "scalar";
    b.width = 1;
  }
  return b;
#endif
}

const Backend& backend() {
  static const Backend b = pick();
  return b;
}

}  // namespace

const Kernels& kernels() { return *backend().k; }

const Kernels& generic_kernels() { return baseline::kTable; }

const char* isa_name() { return backend().name; }

int native_lane_width() { return backend().width; }

}  // namespace rsp::xpp::simd
