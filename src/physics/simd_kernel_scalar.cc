// W = 1 instantiation of the fused force kernel — the BIOSIM_SIMD=scalar
// reference width. Compiled with the build's default flags, no ISA
// extensions and -ffp-contract=off, so it evaluates exactly the generic
// callback path's expressions on every machine; the wide instantiations
// must reproduce its bits.
#include "physics/simd_force_kernel.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim::detail {

namespace {
// Internal linkage keeps this TU's instantiations distinct from the
// other per-ISA TUs' (see simd_kernel_dispatch.h).
struct ScalarWidthTag {};
}  // namespace

void FusedSimdScalarWidth(const FusedPassArgs& args) {
  RunFusedSimdKernel<1, ScalarWidthTag>(args);
}

}  // namespace biosim::detail
