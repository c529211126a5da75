// Deliberately-defective kernels that validate the GPU sanitizer
// (gpusim/sanitizer.h). Each one reproduces a real bug class the production
// kernels avoid — the variants here are what the paper's port would look
// like with the relevant safeguard removed, and the sanitizer tests assert
// that every one of them is detected while the production kernels run
// clean. Never launch these outside tests.
#ifndef BIOSIM_GPU_DIAGNOSTIC_KERNELS_H_
#define BIOSIM_GPU_DIAGNOSTIC_KERNELS_H_

#include <cstdint>

#include "gpu/grid_build_kernels.h"
#include "gpu/grid_params.h"
#include "gpu/mech_device_state.h"
#include "gpusim/device.h"

namespace biosim::gpu {

/// ug_build with the atomics removed: the linked-list head push becomes a
/// plain read-modify-write, so any two agents hashing to the same box race
/// on box_start/box_count (the exact hazard Section IV-E's atomicExch
/// resolves). racecheck: global-memory race.
template <typename T>
void RacyUgBuildKernelBody(gpusim::BlockCtx& blk, MechDeviceState<T>& s,
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
    CountFlops<T>(t, 6);

    // BUG: non-atomic head swap and counter increment.
    int32_t old_head = t.ld(s.box_start, b);
    t.st(s.box_start, b, static_cast<int32_t>(i));
    t.st(s.successors, i, old_head);
    t.st(s.box_count, b, t.ld(s.box_count, b) + 1);
  });
}

/// The shared-memory staging counter without its atomic: every lane bumps
/// counters[0] with a plain load/store. racecheck: shared-memory race.
inline void SharedRaceKernelBody(gpusim::BlockCtx& blk) {
  auto counters = blk.shared<int32_t>(2);
  blk.for_each_lane([&](auto& t) {
    if (t.lane() == 0) {
      t.shared_st(counters, 0, int32_t{0});
    }
  });
  blk.for_each_lane([&](auto& t) {
    // BUG: should be t.atomic_add_shared(counters, 0, 1).
    t.shared_st(counters, 0, t.shared_ld(counters, 0) + 1);
  });
}

/// An off-by-one stencil: each thread reads elements gtid() and gtid()+1,
/// so the last thread reads one element past the input. memcheck:
/// out-of-bounds read.
template <typename T>
void OobReadKernelBody(gpusim::BlockCtx& blk,
                       const gpusim::DeviceBuffer<T>& in,
                       gpusim::DeviceBuffer<T>& out, size_t n) {
  blk.for_each_lane([&](auto& t) {
    size_t i = t.gtid();
    if (i >= n) {
      return;
    }
    // BUG: i + 1 == in.size() for the last element.
    t.st(out, i, t.ld(in, i) + t.ld(in, i + 1));
  });
}

/// Reduction that consumes a shared scratch slot per lane but only writes
/// the first half — relying on shared memory being zeroed, which holds in
/// the simulator but not on hardware. memcheck: uninitialized read.
inline void UninitSharedReadKernelBody(gpusim::BlockCtx& blk,
                                       gpusim::DeviceBuffer<int32_t>& out) {
  auto scratch = blk.shared<int32_t>(64);
  blk.for_each_lane([&](auto& t) {
    if (t.lane() < 32) {
      t.shared_st(scratch, t.lane(), static_cast<int32_t>(t.lane()));
    }
  });
  blk.for_each_lane([&](auto& t) {
    if (t.lane() == 0) {
      int32_t sum = 0;
      for (size_t i = 0; i < scratch.size(); ++i) {
        sum += t.shared_ld(scratch, i);  // BUG: [32, 64) never written
      }
      t.st(out, t.block(), sum);
    }
  });
}

/// Block-dependent barrier count: even blocks synchronize once more than
/// odd blocks — the shape of a __syncthreads() inside divergent control
/// flow. synccheck: barrier divergence.
inline void DivergentBarrierKernelBody(gpusim::BlockCtx& blk,
                                       gpusim::DeviceBuffer<int32_t>& out) {
  blk.for_each_lane([&](auto& t) {
    t.st(out, t.gtid(), static_cast<int32_t>(t.gtid()));
  });
  if (blk.block() % 2 == 0) {  // BUG: barrier under block-dependent control
    blk.for_each_lane([&](auto& t) {
      t.st(out, t.gtid(), t.ld(out, t.gtid()) + 1);
    });
  }
}

}  // namespace biosim::gpu

#endif  // BIOSIM_GPU_DIAGNOSTIC_KERNELS_H_
