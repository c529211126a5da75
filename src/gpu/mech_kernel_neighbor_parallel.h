// Neighbor-parallel mechanical kernel — the paper's future-work hypothesis.
//
// Section VI observes that the GPU gain stagnates at high neighborhood
// density because "the loop over all neighboring agents is serial", and
// proposes dynamic parallelism to parallelize it. This kernel implements
// that idea without child launches (the standard alternative on hardware of
// that era): one *warp* per cell instead of one thread per cell. Each of
// the 27 surrounding grid boxes is assigned to one lane of the warp, the
// lanes walk their box chains concurrently accumulating partial forces, and
// a shared-memory reduction combines the partials before the displacement
// is computed.
//
// Expected behaviour (tested in gpu_versions_test and swept in
// bench_ablation_gpu): at high density the chain walk dominates and the
// 27-way parallelization wins; at low density a warp per cell wastes 31/32
// of the machine and loses. That crossover is exactly the paper's
// hypothesis.
#ifndef BIOSIM_GPU_MECH_KERNEL_NEIGHBOR_PARALLEL_H_
#define BIOSIM_GPU_MECH_KERNEL_NEIGHBOR_PARALLEL_H_

#include "gpu/mech_kernel.h"

namespace biosim::gpu {

/// One warp per cell; `blk.block_dim()` must be a multiple of 32.
template <typename T>
void MechNeighborParallelKernelBody(gpusim::BlockCtx& blk,
                                    MechDeviceState<T>& s,
                                    const GridParams<T>& g, size_t n,
                                    const MechKernelParams<T>& p) {
  const size_t warps_per_block = blk.block_dim() / 32;
  // Per-lane force partials staged in shared memory for the reduction.
  auto pfx = blk.shared<T>(blk.block_dim());
  auto pfy = blk.shared<T>(blk.block_dim());
  auto pfz = blk.shared<T>(blk.block_dim());

  // Phase 1: every lane accumulates the forces from one of the 27 boxes of
  // its warp's cell.
  blk.for_each_lane([&](auto& t) {
    size_t warp = t.lane() / 32;
    size_t lane_in_warp = t.lane() % 32;
    size_t i = blk.block() * warps_per_block + warp;
    if (i >= n || lane_in_warp >= 27) {
      return;
    }
    // All 27 lanes load the cell's own state: the addresses are identical
    // across the warp, so the coalescer collapses them to one transaction
    // (a broadcast, like __shfl from lane 0 on real hardware).
    T xi = t.ld(s.x, i);
    T yi = t.ld(s.y, i);
    T zi = t.ld(s.z, i);
    T ri = t.ld(s.diameter, i) * T{0.5};
    T r2 = p.interaction_radius * p.interaction_radius;

    int32_t cx = g.Coord(xi, g.min_x, g.nx);
    int32_t cy = g.Coord(yi, g.min_y, g.ny);
    int32_t cz = g.Coord(zi, g.min_z, g.nz);
    CountFlops<T>(t, 8);

    int32_t dz = static_cast<int32_t>(lane_in_warp) / 9 - 1;
    int32_t dy = (static_cast<int32_t>(lane_in_warp) / 3) % 3 - 1;
    int32_t dx = static_cast<int32_t>(lane_in_warp) % 3 - 1;
    int32_t x = cx + dx, y = cy + dy, z = cz + dz;
    T fx{}, fy{}, fz{};
    if (x >= 0 && y >= 0 && z >= 0 && x < g.nx && y < g.ny && z < g.nz) {
      size_t b = g.FlatIndex(x, y, z);
      for (int32_t j = t.ld(s.box_start, b); j != kEmptyBox;
           j = t.ld(s.successors, static_cast<size_t>(j))) {
        if (static_cast<size_t>(j) == i) {
          continue;
        }
        size_t ju = static_cast<size_t>(j);
        AccumulatePairForce(t, xi, yi, zi, ri, t.ld(s.x, ju), t.ld(s.y, ju),
                            t.ld(s.z, ju), t.ld(s.diameter, ju) * T{0.5}, r2,
                            p, &fx, &fy, &fz);
      }
    }
    t.shared_st(pfx, t.lane(), fx);
    t.shared_st(pfy, t.lane(), fy);
    t.shared_st(pfz, t.lane(), fz);
  });
  // __syncthreads()

  // Phase 2: lane 0 of each warp reduces its warp's 27 partials, adds the
  // tractor force, and computes the displacement.
  blk.for_each_lane([&](auto& t) {
    if (t.lane() % 32 != 0) {
      return;
    }
    size_t warp = t.lane() / 32;
    size_t i = blk.block() * warps_per_block + warp;
    if (i >= n) {
      return;
    }
    T fx = t.ld(s.tx, i);
    T fy = t.ld(s.ty, i);
    T fz = t.ld(s.tz, i);
    for (size_t l = 0; l < 27; ++l) {
      fx += t.shared_ld(pfx, warp * 32 + l);
      fy += t.shared_ld(pfy, warp * 32 + l);
      fz += t.shared_ld(pfz, warp * 32 + l);
    }
    CountFlops<T>(t, 27 * 3);
    StoreDisplacement(t, s, i, fx, fy, fz, t.ld(s.adherence, i), p);
  });
}

}  // namespace biosim::gpu

#endif  // BIOSIM_GPU_MECH_KERNEL_NEIGHBOR_PARALLEL_H_
