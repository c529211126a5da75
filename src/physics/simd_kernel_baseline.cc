// Native-width instantiation of the SIMD force kernel for the build's
// baseline ISA (no -m flags beyond the toolchain default), so it runs on
// any CPU the binary runs on. On plain x86-64 that means SSE2 codegen:
// the lane loops still vectorize at 2 doubles per op, with the same
// IEEE operations — and so the same bits — as the W = 1 reference. The
// AVX2 TU supersedes this one at runtime where available
// (simd_kernel_dispatch.h).
//
// Compiled with -O3 -fno-math-errno (see src/physics/CMakeLists.txt):
// errno stores are what block GCC from vectorizing sqrt into vsqrtp*.
#include "physics/simd_force_kernel.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim::detail {

namespace {
struct BaselineTag {};
}  // namespace

void FusedSimdBaseline(const FusedPassArgs& args) {
  RunFusedSimdKernel<simd::kNativeLanes<double>, BaselineTag>(args);
}

}  // namespace biosim::detail
