// Runtime dispatch over the per-ISA SIMD force kernel instantiations.
//
// One kernel template (simd_force_kernel.h), several translation units:
//
//   * simd_kernel_scalar.cc   — W = 1, default flags. The BIOSIM_SIMD=
//                               scalar reference: every width must write
//                               its bits exactly.
//   * simd_kernel_baseline.cc — native W, the build's baseline ISA.
//                               Runs everywhere the binary runs.
//   * simd_kernel_avx2.cc     — native W, compiled with -mavx2 -mfma
//                               (x86-64 builds whose compiler supports
//                               the flags; BIOSIM_SIMD_HAS_AVX2_TU).
//                               Selected only after a cpuid probe.
//
// Each TU instantiates the template with its own internal-linkage Tag
// type, so the bodies stay distinct symbols and the linker cannot fold,
// say, an AVX2 instantiation into the baseline one (which would either
// forfeit the speedup or SIGILL on older CPUs, depending on which copy
// survived).
#ifndef BIOSIM_PHYSICS_SIMD_KERNEL_DISPATCH_H_
#define BIOSIM_PHYSICS_SIMD_KERNEL_DISPATCH_H_

#include "core/simd.h"
#include "physics/simd_force_kernel.h"

namespace biosim::detail {

void FusedSimdScalarWidth(const FusedPassArgs& args);
void FusedSimdBaseline(const FusedPassArgs& args);
#if defined(BIOSIM_SIMD_HAS_AVX2_TU)
void FusedSimdAvx2(const FusedPassArgs& args);
#endif

using FusedPassFn = void (*)(const FusedPassArgs&);

/// Pick the kernel: the W = 1 instantiation when BIOSIM_SIMD=scalar,
/// otherwise the widest ISA this CPU supports. The choice affects
/// performance only — every candidate kernel writes the same bits
/// (docs/determinism.md).
inline FusedPassFn SelectFusedSimdKernel(simd::WidthMode mode) {
  if (mode == simd::WidthMode::kScalar) {
    return FusedSimdScalarWidth;
  }
#if defined(BIOSIM_SIMD_HAS_AVX2_TU)
  if (simd::HasAvx2()) {
    return FusedSimdAvx2;
  }
#endif
  return FusedSimdBaseline;
}

}  // namespace biosim::detail

#endif  // BIOSIM_PHYSICS_SIMD_KERNEL_DISPATCH_H_
