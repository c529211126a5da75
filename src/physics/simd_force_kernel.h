// Width-agnostic SIMD instantiation of the fused CSR force kernel.
//
// Same traversal as the scalar fused pass of MechanicalForcesOp
// (docs/perf.md): ascending-key walk over the occupied boxes, one
// 27-neighbor candidate gather per box, one sweep over the gathered
// stream per resident agent. What changes is the gather layout and the
// sweep:
//
//   * the candidate block is gathered into padded, 64-byte-aligned SoA
//     component arrays (x/y/z/diameter) — the layout a vector loop wants,
//     instead of the scalar path's array-of-Double3;
//   * the per-agent sweep is two passes. Pass 1 is the vector loop: W
//     candidates at a time, compute the squared distance stream into an
//     aligned scratch array — pure straight-line lane math, no masks, no
//     branches, which is exactly the shape the per-ISA TUs turn into
//     packed subs/FMAs. Pass 2 walks the d² stream scalarly in candidate
//     order and runs the contact math only on hits (~1 in 6 candidates
//     in the bench population), with the same expression sequence as the
//     scalar force law (physics/force_law.h). The distance test is ~all
//     of the sweep's work, so vectorizing pass 1 is where the speedup
//     lives; keeping the contact math scalar avoids paying vector sqrt
//     and division on mostly-empty lane groups;
//   * accumulation runs in candidate order.
//
// Determinism contract (docs/determinism.md): each lane's d² is a pure
// per-candidate value (FMA is correctly rounded, so grouping candidates
// W at a time cannot change it) and pass 2 accumulates in candidate
// order — the result is *independent of W*. BIOSIM_SIMD=scalar, the
// baseline TU and the AVX2 TU all produce bitwise-identical forces, and
// boxes never share accumulation state, so every width is also bitwise
// self-consistent at any worker count. Against the scalar fused
// reference the kernel owes a *tolerance*: d² here is FMA-contracted
// where the scalar path's dot product is not, enforced by the cpu_simd
// parity row and tests/physics/simd_force_diff_test.
//
// Two deliberate count-exactness choices:
//   * d² is computed with explicit Fma (correctly rounded everywhere),
//     so the hit decision d² <= r² cannot drift between the per-ISA TUs
//     or compilers — the force_evaluations_ parity gate depends on it;
//   * the agent's own slot is NOT skipped: its distance is exactly zero
//     (the query and its gathered slot hold the same coordinates), so it
//     always counts as a hit and contributes zero
//     force (the d² > 0 guard). The guaranteed one self-hit per resident
//     is subtracted from the evaluation count afterwards, which keeps an
//     index compare out of the sweep.
#ifndef BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_
#define BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/aligned_buffer.h"
#include "core/analysis.h"
#include "core/math.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "physics/force_law.h"
#include "spatial/csr_grid_view.h"

namespace biosim::detail {

/// Flattened inputs of one fused force pass over one CSR view, shared by
/// the scalar pass (physics/mechanical_forces_op.cc) and the per-ISA SIMD
/// kernels. Plain pointers so the per-ISA kernel TUs need no view of
/// ResourceManager/Param. The SIMD kernels write *net forces* (tractor +
/// pair sum); the caller converts them to displacements afterwards — that
/// epilogue must not live in the per-ISA TUs, where its inline helpers
/// would be emitted as weak symbols that the linker could fold with copies
/// compiled for a different ISA. The scalar pass writes final
/// displacements directly.
struct FusedPassArgs {
  const Double3* positions = nullptr;
  const double* diameters = nullptr;
  const Double3* tractor = nullptr;
  /// Displacement epilogue inputs (scalar pass only).
  const double* adherences = nullptr;
  double dt = 0.0;
  double max_disp = 0.0;
  /// CSR layout + neighbor-slot resolver: an occupancy-compacted CSR over
  /// the whole lattice or one spatial shard's window
  /// (spatial/shard_grid.h). Both present each box's candidates in the
  /// identical canonical order, so the kernel body is shared bit-for-bit.
  CsrGridView view;
  /// Owned occupied boxes: slots [first_box, first_box + num_boxes), in
  /// ascending key order (traversal order never affects any box's own
  /// candidate sequence, so it is bitwise-free).
  uint32_t first_box = 0;
  size_t num_boxes = 0;
  ForceLaw law = ForceLaw::kCortex3D;
  double repulsion = 0.0;
  double attraction = 0.0;
  /// Interaction radius squared.
  double r2 = 0.0;
  bool torus = false;
  double edge = 0.0;
  ExecMode mode = ExecMode::kSerial;
  /// Output: per-agent net force (SIMD) or displacement (scalar).
  Double3* out = nullptr;
  std::atomic<size_t>* force_evaluations = nullptr;
};

/// Coordinate written into the gather padding lanes: far enough from any
/// real agent that a padded lane could never pass the d² <= r² test.
/// Pass 2 stops at the unpadded candidate count, so pad lanes are only
/// ever touched by pass-1 arithmetic.
inline constexpr double kPadCoordinate = 1e18;

/// The kernel template. `Tag` exists purely to keep instantiations from
/// different translation units distinct: each per-ISA TU passes its own
/// internal-linkage tag type, so a baseline-ISA body and an AVX2 body
/// can never be folded into one weak symbol by the linker.
template <int W, typename Tag>
void RunFusedSimdKernel(const FusedPassArgs& a) {
  using V = simd::Vec<double, W>;

  const int32_t* starts = a.view.box_starts;
  const int32_t* agents = a.view.box_agents;

  const double r2 = a.r2;
  const double kappa = a.repulsion;
  const double gamma = a.attraction;
  const double edge = a.edge;
  const double half_edge = edge / 2.0;
  const V edgev = V::Broadcast(edge);
  const V half_edgev = V::Broadcast(half_edge);
  const V neg_half_edgev = V::Broadcast(-half_edge);
  const bool hertz = a.law == ForceLaw::kHertz;
  const bool torus = a.torus;

  ParallelForChunks(a.mode, a.num_boxes, [&](size_t begin, size_t end) {
    // Per-chunk gather scratch; uninitialized capacity-managed storage,
    // overwritten for every box (core/aligned_buffer.h).
    AlignedBuffer<double> xs_buf;
    AlignedBuffer<double> ys_buf;
    AlignedBuffer<double> zs_buf;
    AlignedBuffer<double> ds_buf;
    AlignedBuffer<double> d2s_buf;
    AlignedBuffer<uint32_t> hidx_buf;
    size_t hits = 0;       // candidates with d² <= r², self-hits included
    size_t residents = 0;  // one guaranteed self-hit per resident agent
    size_t blocks[27];

    for (size_t bi = begin; bi < end; ++bi) {
      const size_t b = a.first_box + bi;
      const int block_count = a.view.neighbor_slots(
          a.view.self, static_cast<uint32_t>(b), blocks);
      size_t cand_n = 0;
      for (int k = 0; k < block_count; ++k) {
        cand_n += static_cast<size_t>(starts[blocks[k] + 1] -
                                      starts[blocks[k]]);
      }
      const size_t padded =
          (cand_n + static_cast<size_t>(W) - 1) / static_cast<size_t>(W) *
          static_cast<size_t>(W);
      double* xs = xs_buf.EnsureCapacity(padded);
      double* ys = ys_buf.EnsureCapacity(padded);
      double* zs = zs_buf.EnsureCapacity(padded);
      double* ds = ds_buf.EnsureCapacity(padded);
      double* d2s = d2s_buf.EnsureCapacity(padded);
      uint32_t* hidx = hidx_buf.EnsureCapacity(cand_n);
      size_t w = 0;
      for (int k = 0; k < block_count; ++k) {
        const size_t nb = blocks[k];
        const int32_t nb_end = starts[nb + 1];
        for (int32_t u = starts[nb]; u < nb_end; ++u, ++w) {
          const int32_t j = agents[u];
          xs[w] = a.positions[j].x;
          ys[w] = a.positions[j].y;
          zs[w] = a.positions[j].z;
          ds[w] = a.diameters[j];
        }
      }
      for (size_t p = cand_n; p < padded; ++p) {
        xs[p] = kPadCoordinate;
        ys[p] = kPadCoordinate;
        zs[p] = kPadCoordinate;
        ds[p] = 0.0;
      }

      BIOSIM_HOT_LOOP_BEGIN();
      const int32_t row_end = starts[b + 1];
      for (int32_t t = starts[b]; t < row_end; ++t) {
        const int32_t i = agents[t];
        // The query position is bitwise its own gathered slot, so the
        // self-distance is exactly zero (the self-hit accounting above
        // relies on this).
        const double pix = a.positions[i].x;
        const double piy = a.positions[i].y;
        const double piz = a.positions[i].z;
        const double ri = a.diameters[i] / 2.0;
        // Pass 1: the vector loop — squared distance of every candidate
        // into the d² scratch. Each lane is a pure function of its
        // candidate, so the stream's values do not depend on W.
        const V pixv = V::Broadcast(pix);
        const V piyv = V::Broadcast(piy);
        const V pizv = V::Broadcast(piz);
        for (size_t u = 0; u < padded; u += static_cast<size_t>(W)) {
          V dx = pixv - V::Load(xs + u);
          V dy = piyv - V::Load(ys + u);
          V dz = pizv - V::Load(zs + u);
          if (torus) {
            // Minimum-image wrap per component, same two-sided test as
            // the scalar MinImageVector. The re-test after the first
            // select is equivalent to the scalar else-if: a wrapped
            // lane lands strictly inside (-edge/2, edge/2].
            dx = simd::Select(simd::Gt(dx, half_edgev), dx - edgev, dx);
            dx = simd::Select(simd::Lt(dx, neg_half_edgev), dx + edgev, dx);
            dy = simd::Select(simd::Gt(dy, half_edgev), dy - edgev, dy);
            dy = simd::Select(simd::Lt(dy, neg_half_edgev), dy + edgev, dy);
            dz = simd::Select(simd::Gt(dz, half_edgev), dz - edgev, dz);
            dz = simd::Select(simd::Lt(dz, neg_half_edgev), dz + edgev, dz);
          }
          const V d2 = simd::Fma(dz, dz, simd::Fma(dy, dy, dx * dx));
          d2.Store(d2s + u);
        }
        // Pass 2: branchless compaction of the hit indices. A plain
        // `if (d2 <= r2) continue` scan stalls on one mispredict per
        // unpredictable candidate (hit rate ~1 in 6, spatially random) —
        // the unconditional store + conditional increment compiles to
        // store/setcc/add and retires at pipeline speed.
        size_t m = 0;
        for (size_t c = 0; c < cand_n; ++c) {
          hidx[m] = static_cast<uint32_t>(c);
          m += static_cast<size_t>(d2s[c] <= r2);
        }
        hits += m;
        // Pass 3: contact math on the hits only, in candidate order,
        // mirroring the scalar force law's expression sequence
        // (physics/force_law.h).
        double fx = 0.0;
        double fy = 0.0;
        double fz = 0.0;
        for (size_t h = 0; h < m; ++h) {
          const size_t c = hidx[h];
          const double d2 = d2s[c];
          if (!(d2 > 0.0)) {
            continue;  // self lane or exactly coincident centers
          }
          const double dist = std::sqrt(d2);
          const double rj = ds[c] * 0.5;
          const double delta = ri + rj - dist;
          if (!(delta > 0.0)) {
            continue;
          }
          const double reduced = (ri * rj) / (ri + rj);
          double magnitude;
          if (hertz) {
            magnitude = kappa * std::sqrt(reduced) * delta * std::sqrt(delta);
          } else {
            magnitude = kappa * delta - gamma * std::sqrt(reduced * delta);
          }
          const double scale = magnitude / dist;
          // Recompute the (wrapped) separation for this hit; same inputs
          // and operations as its pass-1 lane, so bitwise the same.
          double dx = pix - xs[c];
          double dy = piy - ys[c];
          double dz = piz - zs[c];
          if (torus) {
            if (dx > half_edge) {
              dx -= edge;
            } else if (dx < -half_edge) {
              dx += edge;
            }
            if (dy > half_edge) {
              dy -= edge;
            } else if (dy < -half_edge) {
              dy += edge;
            }
            if (dz > half_edge) {
              dz -= edge;
            } else if (dz < -half_edge) {
              dz += edge;
            }
          }
          fx += dx * scale;
          fy += dy * scale;
          fz += dz * scale;
        }
        a.out[i] = a.tractor[i] + Double3{fx, fy, fz};
      }
      BIOSIM_HOT_LOOP_END();
      residents += static_cast<size_t>(row_end - starts[b]);
    }
    a.force_evaluations->fetch_add(hits - residents,
                                   std::memory_order_relaxed);
  });
}

}  // namespace biosim::detail

#endif  // BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_
