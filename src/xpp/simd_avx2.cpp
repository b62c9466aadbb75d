// AVX2 instantiation of the lane kernels.  This TU is the only one
// built with -mavx2 (added by src/xpp/CMakeLists.txt when the compiler
// accepts the flag); everything outside it must stay baseline-ISA so
// the binary still runs on non-AVX2 hosts — dispatch in simd.cpp only
// follows the pointer returned here after __builtin_cpu_supports says
// the feature is present.
#include "src/xpp/simd.hpp"

#include "src/xpp/alu_ops.hpp"

namespace rsp::xpp::simd::detail {

#if defined(__AVX2__) && !defined(RSP_SIMD_OFF)

namespace avx2 {
#include "src/xpp/simd_lanes.inc"
}  // namespace avx2

const Kernels* avx2_kernels() { return &avx2::kTable; }

#else

const Kernels* avx2_kernels() { return nullptr; }

#endif

}  // namespace rsp::xpp::simd::detail
