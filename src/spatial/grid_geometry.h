// Geometry of the uniform box lattice, factored out of the grid environment.
//
// The lattice (box edge length, origin, per-axis box counts, torus wrap and
// the reduced neighbor-offset ranges on short periodic axes) used to be
// derived inline in UniformGridEnvironment::Update. Spatial sharding needs
// the identical derivation without a grid instance — every shard bins its
// members with the same lattice the unsharded grid would use, which is what
// makes the per-shard CSR runs byte-identical to the global grid's runs
// (docs/sharding.md). Deriving it twice from two copies of the same code
// would invite bit-level drift; both the environment and ShardGrid call
// Derive() and the shared coordinate helpers below.
//
// Everything here is pure integer/FP-comparison logic on the lattice — no
// agent state, no CSR — so sharing it cannot change any force bits.
#ifndef BIOSIM_SPATIAL_GRID_GEOMETRY_H_
#define BIOSIM_SPATIAL_GRID_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/math.h"

namespace biosim {

class ResourceManager;
struct Param;

struct GridGeometry {
  /// Largest agent diameter + param.interaction_radius_margin, the radius
  /// the 27-box scheme must cover.
  double interaction_radius = 0.0;
  double box_length = 1.0;
  /// 1 / box_length, precomputed so binning costs a multiply per axis.
  double inv_box_length = 1.0;
  Double3 grid_min{};
  Int3 num_boxes_axis{1, 1, 1};
  /// Periodic space: neighbor enumeration wraps across faces.
  bool torus = false;
  double edge = 0.0;
  /// Per-axis neighbor-offset bounds ({-1,1} normally; reduced on periodic
  /// axes with < 3 boxes so a wrapped offset cannot revisit a box).
  /// Indexed x=0, y=1, z=2.
  int32_t off_lo[3] = {-1, -1, -1};
  int32_t off_hi[3] = {1, 1, 1};

  /// Derive the lattice for the current population, exactly as
  /// UniformGridEnvironment::Update historically did: fixed box edge when
  /// `fixed_box_length` > 0 (throws std::invalid_argument when it is smaller
  /// than the interaction radius), else max(interaction radius, 1e-6);
  /// periodic grids cover [min_bound, max_bound) exactly, open/clamped grids
  /// cover rm.Bounds(). An empty population yields the degenerate single-box
  /// lattice.
  static GridGeometry Derive(const ResourceManager& rm, const Param& param,
                             double fixed_box_length = 0.0);

  /// Set off_lo/off_hi from num_boxes_axis and torus (Derive's last step;
  /// tests that lay out a lattice by hand call it too).
  void SetNeighborOffsets();

  /// Whether two derivations produce the same box lattice — the incremental
  /// grid's reuse gate. EXACT comparison, no tolerance: a lattice differing
  /// in any bit bins agents differently. (interaction_radius is deliberately
  /// not compared: with a fixed box edge the radius can grow without moving
  /// any box boundary.)
  bool SameLattice(const GridGeometry& o) const {
    return torus == o.torus && box_length == o.box_length &&
           num_boxes_axis.x == o.num_boxes_axis.x &&
           num_boxes_axis.y == o.num_boxes_axis.y &&
           num_boxes_axis.z == o.num_boxes_axis.z &&
           grid_min.x == o.grid_min.x && grid_min.y == o.grid_min.y &&
           grid_min.z == o.grid_min.z && (!torus || edge == o.edge);
  }

  size_t TotalBoxes() const {
    return static_cast<size_t>(num_boxes_axis.x) *
           static_cast<size_t>(num_boxes_axis.y) *
           static_cast<size_t>(num_boxes_axis.z);
  }

  Int3 BoxCoordinatesOf(const Double3& pos) const {
    auto coord = [&](double v, double lo, int32_t n) {
      int32_t c = static_cast<int32_t>(std::floor((v - lo) * inv_box_length));
      return std::clamp(c, 0, n - 1);
    };
    return {coord(pos.x, grid_min.x, num_boxes_axis.x),
            coord(pos.y, grid_min.y, num_boxes_axis.y),
            coord(pos.z, grid_min.z, num_boxes_axis.z)};
  }

  size_t FlatBoxIndex(const Int3& c) const {
    return (static_cast<size_t>(c.z) * static_cast<size_t>(num_boxes_axis.y) +
            static_cast<size_t>(c.y)) *
               static_cast<size_t>(num_boxes_axis.x) +
           static_cast<size_t>(c.x);
  }

  /// Inverse of FlatBoxIndex.
  Int3 BoxCoordinatesOfIndex(size_t b) const {
    int32_t x =
        static_cast<int32_t>(b % static_cast<size_t>(num_boxes_axis.x));
    size_t rest = b / static_cast<size_t>(num_boxes_axis.x);
    int32_t y =
        static_cast<int32_t>(rest % static_cast<size_t>(num_boxes_axis.y));
    int32_t z =
        static_cast<int32_t>(rest / static_cast<size_t>(num_boxes_axis.y));
    return {x, y, z};
  }

  /// One axis coordinate `v` = c + offset moved back onto the lattice: a
  /// conditional +-n on a torus (offsets are within one box, so one step
  /// suffices), false when it falls off an open face.
  bool WrapOrClip(int32_t& v, int32_t n) const {
    if (v < 0) {
      v += n;
      return torus;
    }
    if (v >= n) {
      v -= n;
      return torus;
    }
    return true;
  }

  /// The x-coordinates of a neighbor row around box column `x`, in
  /// canonical dx order, as at most two runs of consecutive ascending x
  /// (a torus row wraps at most once). Returns the run count.
  struct XRun {
    int32_t x0 = 0;
    int32_t len = 0;
  };
  int NeighborXRuns(int32_t x, XRun runs[2]) const {
    int count = 0;
    for (int32_t dx = off_lo[0]; dx <= off_hi[0]; ++dx) {
      int32_t v = x + dx;
      if (!WrapOrClip(v, num_boxes_axis.x)) {
        continue;
      }
      if (count > 0 && runs[count - 1].x0 + runs[count - 1].len == v) {
        ++runs[count - 1].len;
      } else {
        runs[count++] = {v, 1};
      }
    }
    return count;
  }

  /// Enumerate the (up to 9) neighbor rows (z, y) of box `c` in canonical
  /// (dz, dy) order, clamped at the domain faces, wrapped on a torus.
  template <typename Fn>
  void ForEachNeighborRow(const Int3& c, Fn&& fn) const {
    for (int32_t dz = off_lo[2]; dz <= off_hi[2]; ++dz) {
      int32_t z = c.z + dz;
      if (!WrapOrClip(z, num_boxes_axis.z)) {
        continue;
      }
      for (int32_t dy = off_lo[1]; dy <= off_hi[1]; ++dy) {
        int32_t y = c.y + dy;
        if (WrapOrClip(y, num_boxes_axis.y)) {
          fn(z, y);
        }
      }
    }
  }

  /// Enumerate the (up to 27) neighbor-box coordinates of box `c` in the
  /// canonical (dz, dy, dx) order every traversal uses: the rows of
  /// ForEachNeighborRow, each walked along its NeighborXRuns. This single
  /// row form is what both the global grid's callback traversal and each
  /// window's slot resolver (ShardGrid::NeighborSlots) derive their block
  /// order from, so their candidate sequences — and therefore their FP
  /// accumulation orders — are identical by construction.
  template <typename Fn>
  void ForEachNeighborCoord(const Int3& c, Fn&& fn) const {
    XRun runs[2];
    const int num_runs = NeighborXRuns(c.x, runs);
    ForEachNeighborRow(c, [&](int32_t z, int32_t y) {
      for (int r = 0; r < num_runs; ++r) {
        for (int32_t x = runs[r].x0; x < runs[r].x0 + runs[r].len; ++x) {
          fn(Int3{x, y, z});
        }
      }
    });
  }

  /// Flat indices of the 3x3x3 block around `c`, canonical order. `out`
  /// must hold 27 entries; returns the number filled.
  int NeighborBoxesOf(const Int3& c, size_t out[27]) const {
    int count = 0;
    ForEachNeighborCoord(c, [&](const Int3& nc) {
      out[count++] = FlatBoxIndex(nc);
    });
    return count;
  }
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_GRID_GEOMETRY_H_
