// Device-side uniform-grid construction (Section IV-B: "we decided to port
// the uniform grid algorithm as well as the mechanical force computation").
//
// Two kernels, launched once per step before the interaction kernel:
//   ug_reset  -- box_start := EMPTY, box_count := 0 (one thread per box)
//   ug_build  -- one thread per agent: compute the agent's box and push it
//                onto the box's linked list with an atomic exchange
//                (successors[i] := old head), plus an atomic count.
#ifndef BIOSIM_GPU_GRID_BUILD_KERNELS_H_
#define BIOSIM_GPU_GRID_BUILD_KERNELS_H_

#include <cstdint>
#include <type_traits>

#include "gpu/grid_params.h"
#include "gpu/mech_device_state.h"
#include "gpusim/device.h"

namespace biosim::gpu {

inline constexpr int32_t kEmptyBox = -1;

/// Account floating-point work in the precision the kernel instantiates.
template <typename T, bool kChecked>
inline void CountFlops(gpusim::BasicLane<kChecked>& t, uint64_t n) {
  if constexpr (std::is_same_v<T, float>) {
    t.flops32(n);
  } else {
    t.flops64(n);
  }
}

template <typename T>
void UgResetKernelBody(gpusim::BlockCtx& blk, MechDeviceState<T>& s,
                       size_t total_boxes) {
  blk.for_each_lane([&](auto& t) {
    size_t b = t.gtid();
    if (b >= total_boxes) {
      return;
    }
    t.st(s.box_start, b, kEmptyBox);
    t.st(s.box_count, b, int32_t{0});
  });
}

template <typename T>
void UgBuildKernelBody(gpusim::BlockCtx& blk, MechDeviceState<T>& s,
                       const GridParams<T>& g, size_t n) {
  blk.for_each_lane([&](auto& t) {
    size_t i = t.gtid();
    if (i >= n) {
      return;
    }
    T xi = t.ld(s.x, i);
    T yi = t.ld(s.y, i);
    T zi = t.ld(s.z, i);
    size_t b = g.BoxOf(xi, yi, zi);
    CountFlops<T>(t, 6);  // three (v-lo)/L computations

    // Linked-list push (Fig. 5): head swap + successor link.
    int32_t old_head = t.atomic_exch(s.box_start, b, static_cast<int32_t>(i));
    t.st(s.successors, i, old_head);
    t.atomic_add(s.box_count, b, int32_t{1});
  });
}

}  // namespace biosim::gpu

#endif  // BIOSIM_GPU_GRID_BUILD_KERNELS_H_
