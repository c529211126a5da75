// The mechanical-interaction GPU kernels (the paper's core contribution).
//
// MechKernelBody is the one-thread-per-cell kernel used by GPU versions
// 0-II: find the neighborhood through the 27 surrounding grid boxes and
// accumulate the Eq. (1) collision forces, then gate on adherence, integrate
// and clamp the displacement. Instantiated with T=double it is GPU version 0;
// with T=float it is version I; version II is the same kernel run on
// Z-order-sorted inputs (the host sorts, the kernel is unchanged — the
// speedup comes purely from memory behaviour).
//
// MechSharedKernelBody is the Improvement III variant (Fig. 7): one block
// per 2x2x2 tile of boxes; the block cooperatively stages every agent of the
// surrounding 4x4x4 region into shared memory (atomic-append, the race the
// paper calls out), then processes the tile's own agents against the staged
// candidates. The boundary handling and the append atomics are what make
// this version *slower* in the paper, and both are modeled mechanically
// here (divergence accounting + atomic serialization).
#ifndef BIOSIM_GPU_MECH_KERNEL_H_
#define BIOSIM_GPU_MECH_KERNEL_H_

#include <cmath>
#include <cstdint>

#include "gpu/grid_build_kernels.h"
#include "gpu/grid_params.h"
#include "gpu/mech_device_state.h"
#include "gpusim/device.h"
#include "physics/interaction_force.h"

namespace biosim::gpu {

template <typename T>
struct MechKernelParams {
  T interaction_radius;  // largest agent diameter
  T repulsion;           // kappa
  T attraction;          // gamma
  T dt;
  T max_displacement;
};

/// Distance-gated Eq. (1) force accumulation for one candidate pair.
/// Returns true if the candidate was within the interaction radius (a
/// "force evaluation" in the CPU op's sense).
template <typename T, bool kChecked>
inline bool AccumulatePairForce(gpusim::BasicLane<kChecked>& t, T xi, T yi,
                                T zi, T ri, T xj, T yj, T zj, T rj, T r2,
                                const MechKernelParams<T>& p, T* fx, T* fy,
                                T* fz) {
  T dx = xi - xj;
  T dy = yi - yj;
  T dz = zi - zj;
  T dist2 = dx * dx + dy * dy + dz * dz;
  CountFlops<T>(t, kDistanceTestFlops);
  if (dist2 > r2 || dist2 <= T{0}) {
    return false;
  }
  T dist = std::sqrt(dist2);
  T delta = ri + rj - dist;
  CountFlops<T>(t, kForceFlops);
  if (delta <= T{0}) {
    return true;  // within radius but not in contact: zero force
  }
  T reduced = (ri * rj) / (ri + rj);
  T magnitude =
      (p.repulsion * delta - p.attraction * std::sqrt(reduced * delta)) / dist;
  *fx += dx * magnitude;
  *fy += dy * magnitude;
  *fz += dz * magnitude;
  return true;
}

/// Adherence gate + integration + clamp, then store the displacement.
template <typename T, bool kChecked>
inline void StoreDisplacement(gpusim::BasicLane<kChecked>& t,
                              MechDeviceState<T>& s, size_t i, T fx, T fy,
                              T fz, T adherence,
                              const MechKernelParams<T>& p) {
  T f2 = fx * fx + fy * fy + fz * fz;
  T ox{}, oy{}, oz{};
  if (f2 > adherence * adherence) {
    ox = fx * p.dt;
    oy = fy * p.dt;
    oz = fz * p.dt;
    T d2 = ox * ox + oy * oy + oz * oz;
    if (d2 > p.max_displacement * p.max_displacement && d2 > T{0}) {
      T scale = p.max_displacement / std::sqrt(d2);
      ox *= scale;
      oy *= scale;
      oz *= scale;
    }
  }
  CountFlops<T>(t, 30);  // norm tests + sqrt(8) + div(4) on the clamp path
  t.st(s.out_x, i, ox);
  t.st(s.out_y, i, oy);
  t.st(s.out_z, i, oz);
}

/// GPU versions 0-II: one thread per cell; neighborhood lookup + force
/// computation fused in a single kernel (Section IV-B).
template <typename T>
void MechKernelBody(gpusim::BlockCtx& blk, MechDeviceState<T>& s,
                    const GridParams<T>& g, size_t n,
                    const MechKernelParams<T>& p) {
  blk.for_each_lane([&](auto& t) {
    size_t i = t.gtid();
    if (i >= n) {
      return;
    }
    T xi = t.ld(s.x, i);
    T yi = t.ld(s.y, i);
    T zi = t.ld(s.z, i);
    T ri = t.ld(s.diameter, i) * T{0.5};
    T fx = t.ld(s.tx, i);
    T fy = t.ld(s.ty, i);
    T fz = t.ld(s.tz, i);
    T r2 = p.interaction_radius * p.interaction_radius;

    int32_t cx = g.Coord(xi, g.min_x, g.nx);
    int32_t cy = g.Coord(yi, g.min_y, g.ny);
    int32_t cz = g.Coord(zi, g.min_z, g.nz);
    CountFlops<T>(t, 8);

    for (int32_t dz = -1; dz <= 1; ++dz) {
      int32_t z = cz + dz;
      if (z < 0 || z >= g.nz) {
        continue;
      }
      for (int32_t dy = -1; dy <= 1; ++dy) {
        int32_t y = cy + dy;
        if (y < 0 || y >= g.ny) {
          continue;
        }
        for (int32_t dx = -1; dx <= 1; ++dx) {
          int32_t x = cx + dx;
          if (x < 0 || x >= g.nx) {
            continue;
          }
          size_t b = g.FlatIndex(x, y, z);
          for (int32_t j = t.ld(s.box_start, b); j != kEmptyBox;
               j = t.ld(s.successors, static_cast<size_t>(j))) {
            if (static_cast<size_t>(j) == i) {
              continue;
            }
            size_t ju = static_cast<size_t>(j);
            T xj = t.ld(s.x, ju);
            T yj = t.ld(s.y, ju);
            T zj = t.ld(s.z, ju);
            T rj = t.ld(s.diameter, ju) * T{0.5};
            AccumulatePairForce(t, xi, yi, zi, ri, xj, yj, zj, rj, r2, p,
                                &fx, &fy, &fz);
          }
        }
      }
    }

    T adherence = t.ld(s.adherence, i);
    StoreDisplacement(t, s, i, fx, fy, fz, adherence, p);
  });
}

// ---------------------------------------------------------------------------
// Improvement III: shared-memory kernel (Fig. 7).
// ---------------------------------------------------------------------------

/// Shared staging capacities, sized to fit the 48 KiB/block limit: FP32
/// stages 1536 agents (4 floats + 1 int each = 30 KiB), FP64 proportionally
/// fewer. Region overflow falls back to the global-memory path for
/// correctness.
template <typename T>
constexpr size_t SharedRegionCap() {
  return std::is_same_v<T, float> ? 1536 : 768;
}
template <typename T>
constexpr size_t SharedCenterCap() {
  return std::is_same_v<T, float> ? 768 : 384;
}
inline constexpr int32_t kTileBoxes = 2;  // 2x2x2 boxes per block

template <typename T>
void MechSharedKernelBody(gpusim::BlockCtx& blk, MechDeviceState<T>& s,
                          const GridParams<T>& g, size_t n,
                          const MechKernelParams<T>& p) {
  (void)n;
  // Tile coordinates of this block.
  int32_t tiles_x = (g.nx + kTileBoxes - 1) / kTileBoxes;
  int32_t tiles_y = (g.ny + kTileBoxes - 1) / kTileBoxes;
  size_t tile = blk.block();
  int32_t tz = static_cast<int32_t>(tile / (static_cast<size_t>(tiles_x) * tiles_y));
  size_t rem = tile % (static_cast<size_t>(tiles_x) * tiles_y);
  int32_t ty = static_cast<int32_t>(rem / static_cast<size_t>(tiles_x));
  int32_t tx = static_cast<int32_t>(rem % static_cast<size_t>(tiles_x));

  // __shared__ staging arrays.
  constexpr size_t kRegionCap = SharedRegionCap<T>();
  constexpr size_t kCenterCap = SharedCenterCap<T>();
  auto sx = blk.shared<T>(kRegionCap);
  auto sy = blk.shared<T>(kRegionCap);
  auto sz = blk.shared<T>(kRegionCap);
  auto sdiam = blk.shared<T>(kRegionCap);
  auto sidx = blk.shared<int32_t>(kRegionCap);
  auto scenter = blk.shared<int32_t>(kCenterCap);
  auto counters = blk.shared<int32_t>(2);  // [0]=region count, [1]=center count

  // The 4x4x4 halo region around the 2x2x2 tile (Fig. 7's highlighted area).
  const int32_t rx0 = tx * kTileBoxes - 1;
  const int32_t ry0 = ty * kTileBoxes - 1;
  const int32_t rz0 = tz * kTileBoxes - 1;
  constexpr int32_t kRegion = kTileBoxes + 2;  // 4 boxes per axis

  // Phase 0: zero the append counters. Shared memory is uninitialized on
  // real hardware — the atomic appends below read-modify-write the
  // counters, so they must be seeded explicitly, not by the simulator's
  // zero-fill.
  blk.for_each_lane([&](auto& t) {
    if (t.lane() == 0) {
      t.shared_st(counters, 0, int32_t{0});
      t.shared_st(counters, 1, int32_t{0});
    }
  });
  // implicit __syncthreads()

  // Phase 1: cooperatively stage the region's agents into shared memory.
  // Each lane walks a subset of the 64 region boxes; every append is an
  // atomic increment of the shared counter — the parallel-build race the
  // paper resolves with atomics (Section IV-E).
  blk.for_each_lane([&](auto& t) {
    for (int32_t box = static_cast<int32_t>(t.lane());
         box < kRegion * kRegion * kRegion;
         box += static_cast<int32_t>(t.block_dim())) {
      int32_t bx = rx0 + box % kRegion;
      int32_t by = ry0 + (box / kRegion) % kRegion;
      int32_t bz = rz0 + box / (kRegion * kRegion);
      if (bx < 0 || by < 0 || bz < 0 || bx >= g.nx || by >= g.ny ||
          bz >= g.nz) {
        continue;
      }
      bool center = bx >= tx * kTileBoxes && bx < (tx + 1) * kTileBoxes &&
                    by >= ty * kTileBoxes && by < (ty + 1) * kTileBoxes &&
                    bz >= tz * kTileBoxes && bz < (tz + 1) * kTileBoxes;
      size_t b = g.FlatIndex(bx, by, bz);
      for (int32_t j = t.ld(s.box_start, b); j != kEmptyBox;
           j = t.ld(s.successors, static_cast<size_t>(j))) {
        size_t ju = static_cast<size_t>(j);
        int32_t slot = t.atomic_add_shared(counters, 0, int32_t{1});
        if (static_cast<size_t>(slot) < kRegionCap) {
          t.shared_st(sx, slot, t.ld(s.x, ju));
          t.shared_st(sy, slot, t.ld(s.y, ju));
          t.shared_st(sz, slot, t.ld(s.z, ju));
          t.shared_st(sdiam, slot, t.ld(s.diameter, ju));
          t.shared_st(sidx, slot, j);
        }
        if (center) {
          int32_t cslot = t.atomic_add_shared(counters, 1, int32_t{1});
          if (static_cast<size_t>(cslot) < kCenterCap) {
            t.shared_st(scenter, cslot, j);
          }
        }
      }
    }
  });
  // implicit __syncthreads()

  // Phase 2: each lane processes center agents in a strided loop, testing
  // them against the staged region. Falls back to the global 27-box walk if
  // the staging overflowed.
  blk.for_each_lane([&](auto& t) {
    int32_t region_count = t.shared_ld(counters, 0);
    int32_t center_count = t.shared_ld(counters, 1);
    bool overflow = static_cast<size_t>(region_count) > SharedRegionCap<T>() ||
                    static_cast<size_t>(center_count) > SharedCenterCap<T>();
    T r2 = p.interaction_radius * p.interaction_radius;

    if (overflow) {
      // Correctness fallback: global traversal per center-tile box, the
      // center list may itself be truncated so re-walk the chains.
      for (int32_t box = static_cast<int32_t>(t.lane());
           box < kTileBoxes * kTileBoxes * kTileBoxes;
           box += static_cast<int32_t>(t.block_dim())) {
        int32_t bx = tx * kTileBoxes + box % kTileBoxes;
        int32_t by = ty * kTileBoxes + (box / kTileBoxes) % kTileBoxes;
        int32_t bz = tz * kTileBoxes + box / (kTileBoxes * kTileBoxes);
        if (bx >= g.nx || by >= g.ny || bz >= g.nz) {
          continue;
        }
        for (int32_t i = t.ld(s.box_start, g.FlatIndex(bx, by, bz));
             i != kEmptyBox; i = t.ld(s.successors, static_cast<size_t>(i))) {
          size_t iu = static_cast<size_t>(i);
          T xi = t.ld(s.x, iu);
          T yi = t.ld(s.y, iu);
          T zi = t.ld(s.z, iu);
          T ri = t.ld(s.diameter, iu) * T{0.5};
          T fx = t.ld(s.tx, iu);
          T fy = t.ld(s.ty, iu);
          T fz = t.ld(s.tz, iu);
          for (int32_t dz = -1; dz <= 1; ++dz) {
            for (int32_t dy = -1; dy <= 1; ++dy) {
              for (int32_t dx = -1; dx <= 1; ++dx) {
                int32_t nx = bx + dx, ny = by + dy, nz = bz + dz;
                if (nx < 0 || ny < 0 || nz < 0 || nx >= g.nx || ny >= g.ny ||
                    nz >= g.nz) {
                  continue;
                }
                for (int32_t j = t.ld(s.box_start, g.FlatIndex(nx, ny, nz));
                     j != kEmptyBox;
                     j = t.ld(s.successors, static_cast<size_t>(j))) {
                  if (j == i) {
                    continue;
                  }
                  size_t ju = static_cast<size_t>(j);
                  AccumulatePairForce(t, xi, yi, zi, ri, t.ld(s.x, ju),
                                      t.ld(s.y, ju), t.ld(s.z, ju),
                                      t.ld(s.diameter, ju) * T{0.5}, r2, p,
                                      &fx, &fy, &fz);
                }
              }
            }
          }
          StoreDisplacement(t, s, iu, fx, fy, fz, t.ld(s.adherence, iu), p);
        }
      }
      return;
    }

    for (int32_t k = static_cast<int32_t>(t.lane()); k < center_count;
         k += static_cast<int32_t>(t.block_dim())) {
      int32_t i = t.shared_ld(scenter, k);
      size_t iu = static_cast<size_t>(i);
      T xi = t.ld(s.x, iu);
      T yi = t.ld(s.y, iu);
      T zi = t.ld(s.z, iu);
      T ri = t.ld(s.diameter, iu) * T{0.5};
      T fx = t.ld(s.tx, iu);
      T fy = t.ld(s.ty, iu);
      T fz = t.ld(s.tz, iu);

      for (int32_t c = 0; c < region_count; ++c) {
        if (t.shared_ld(sidx, c) == i) {
          continue;
        }
        AccumulatePairForce(t, xi, yi, zi, ri, t.shared_ld(sx, c),
                            t.shared_ld(sy, c), t.shared_ld(sz, c),
                            t.shared_ld(sdiam, c) * T{0.5}, r2, p, &fx, &fy,
                            &fz);
      }
      StoreDisplacement(t, s, iu, fx, fy, fz, t.ld(s.adherence, iu), p);
    }
  });
}

}  // namespace biosim::gpu

#endif  // BIOSIM_GPU_MECH_KERNEL_H_
