// Native-width instantiation of the SIMD force kernel for AVX2 + FMA.
// This TU is only added to the build when the compiler accepts
// -mavx2 -mfma on x86-64 (src/physics/CMakeLists.txt defines
// BIOSIM_SIMD_HAS_AVX2_TU alongside it) and is only *called* after
// simd::HasAvx2() probes the running CPU — nothing outside these
// wrappers may be compiled with the extended ISA, or illegal
// instructions could leak into code reachable on older machines.
//
// With -mavx2 -mfma -O3 -fno-math-errno the lane loops compile to
// 256-bit vsubpd/vmulpd/vblendvpd sequences; -ffp-contract=off keeps
// -mfma from fusing any multiply-add, so every lane and the scalar
// contact math round exactly as the W = 1 reference does.
#include "physics/simd_force_kernel.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim::detail {

namespace {
struct Avx2Tag {};
}  // namespace

void FusedSimdAvx2(const FusedPassArgs& args) {
  RunFusedSimdKernel<simd::kNativeLanes<double>, Avx2Tag>(args);
}

}  // namespace biosim::detail
