// Native-width instantiation of the SIMD force kernel for AVX2 + FMA.
// This TU is only added to the build when the compiler accepts
// -mavx2 -mfma on x86-64 (src/physics/CMakeLists.txt defines
// BIOSIM_SIMD_HAS_AVX2_TU alongside it) and is only *called* after
// simd::HasAvx2() probes the running CPU — nothing outside these
// wrappers may be compiled with the extended ISA, or illegal
// instructions could leak into code reachable on older machines.
//
// With -mavx2 -mfma -O3 -fno-math-errno the lane loops compile to
// 256-bit vmulpd/vsqrtpd/vblendvpd sequences and std::fma becomes
// vfmadd — the same correctly-rounded operation the other TUs get from
// libm, so the d² hit test stays bit-identical across kernels.
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
