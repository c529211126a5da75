// The fused CSR force kernel: the one implementation of the uniform-grid
// and per-shard force pass (docs/perf.md), instantiated per vector width.
//
// Traversal: ascending-key walk over the occupied boxes, one 27-neighbor
// candidate gather per box, one sweep over the gathered stream per
// resident agent. The gather copies each neighbor box's contiguous range of
// the member-ordered inputs MechanicalForcesOp stages once per pass into
// 64-byte-aligned SoA scratch (x/y/z/radius), and the per-agent sweep runs
// in three passes:
//
//   * pass 1, the vector loop: W candidates at a time, the squared
//     distance stream into an aligned scratch array — straight-line lane
//     math with no branches, which the per-ISA TUs turn into packed
//     instructions. A ragged end is one more vector over the last W
//     candidates (no padding lanes); boxes with fewer than W candidates
//     run one scalar sweep with the same lane math instead;
//   * pass 2: branchless compaction of the hit indices (d² <= r²);
//   * pass 3: contact math on the hits only, in candidate order, then the
//     force -> displacement epilogue. Keeping the contact math scalar
//     avoids paying vector sqrt and division on mostly-empty lane groups.
//
// Determinism contract (docs/determinism.md): the kernel is bitwise the
// generic callback path of MechanicalForcesOp — the same candidates in the
// same canonical order, the same FP expressions in the same order:
//
//   * d² is (dx*dx + dy*dy) + dz*dz, exactly Real3::SquaredNorm — no FMA
//     (the per-ISA TUs compile with -ffp-contract=off);
//   * the accumulator starts at the tractor force and adds each pair
//     force in candidate order; hits the force law answers with zero
//     (coincident centers, no overlap) add +0.0 as the law's zero vector
//     does;
//   * on a torus the law sees the separation pi - (pi - miv), per
//     component, and recomputes d² from it; pass 1's d² (of miv) is the
//     hit test only;
//   * the epilogue is ComputeDisplacement/ClampNorm's expression order.
//
// Each lane is a pure function of its candidate, so the result is
// independent of W: BIOSIM_SIMD=scalar (W = 1) is the reference and every
// width is bitwise equal to it, at any worker count, since boxes never
// share accumulation state. The agent's own slot is not skipped by the
// vector loop: its d² is exactly zero, so it is always a hit, and pass 3
// drops it by candidate index — keeping an index compare out of the
// vector loop while counting force evaluations exactly as the callback
// path does.
#ifndef BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_
#define BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/aligned_buffer.h"
#include "core/analysis.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "spatial/csr_grid_view.h"

namespace biosim::detail {

/// Members the kernel copies per step of a run copy. The staged arrays of
/// FusedPassArgs must hold kGatherChunk - 1 readable entries past the last
/// member.
inline constexpr size_t kGatherChunk = 4;

/// Flattened inputs of one fused force pass over one CSR view. Plain
/// pointers so the per-ISA kernel TUs need no view of ResourceManager/
/// Param. The kernel writes final displacements, with the epilogue written
/// out inside the template: a call to an inline helper (ComputeDisplacement,
/// Real3 operators) from a per-ISA TU would be emitted as a weak symbol
/// that the linker could fold with a copy compiled for a different ISA.
struct FusedPassArgs {
  /// The force inputs staged in CSR member order once per pass
  /// (MechanicalForcesOp): entry u belongs to row view.box_agents[u].
  /// A box's candidates are then a few contiguous member runs, copied in
  /// fixed chunks, instead of one scattered positions/diameters read per
  /// candidate per neighboring box, and a resident's own inputs and output
  /// sit at its member index instead of a random row. radius is
  /// diameter / 2.0, exactly as the force law halves it.
  const double* x = nullptr;
  const double* y = nullptr;
  const double* z = nullptr;
  const double* radius = nullptr;
  /// Owned members only (the runs of the owned boxes): the adherence, and
  /// the tractor force on entry, which the kernel overwrites with the
  /// member's final displacement; the caller scatters it back to rows.
  const double* adherences = nullptr;
  double* fx = nullptr;
  double* fy = nullptr;
  double* fz = nullptr;
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
  double repulsion = 0.0;
  double attraction = 0.0;
  /// Interaction radius squared.
  double r2 = 0.0;
  bool torus = false;
  double edge = 0.0;
  ExecMode mode = ExecMode::kSerial;
  std::atomic<size_t>* force_evaluations = nullptr;
};

/// The kernel template. `Tag` exists purely to keep instantiations from
/// different translation units distinct: each per-ISA TU passes its own
/// internal-linkage tag type, so a baseline-ISA body and an AVX2 body
/// can never be folded into one weak symbol by the linker.
template <int W, typename Tag>
void RunFusedSimdKernel(const FusedPassArgs& a) {
  using V = simd::Vec<double, W>;
  using Chunk = simd::Vec<double, static_cast<int>(kGatherChunk)>;
  constexpr size_t kW = static_cast<size_t>(W);
  // SoA arrays start on cache-line boundaries inside the merged scratch.
  constexpr size_t kLine = simd::kAlignment / sizeof(double);

  const int32_t* starts = a.view.box_starts;

  const double r2 = a.r2;
  const double kappa = a.repulsion;
  const double gamma = a.attraction;
  const double dt = a.dt;
  const double max_disp = a.max_disp;
  const double edge = a.edge;
  const double half_edge = edge / 2.0;
  const V edgev = V::Broadcast(edge);
  const V half_edgev = V::Broadcast(half_edge);
  const V neg_half_edgev = V::Broadcast(-half_edge);
  const bool torus = a.torus;

  // Minimum-image wrap of one separation component: MinImageVector's
  // two-sided test, spelled out here (see FusedPassArgs on helpers).
  const auto wrap = [edge, half_edge](double d) {
    if (d > half_edge) {
      return d - edge;
    }
    if (d < -half_edge) {
      return d + edge;
    }
    return d;
  };

  ParallelForChunks(a.mode, a.num_boxes, [&](size_t begin, size_t end) {
    // Per-chunk gather scratch, two allocations: the five double streams
    // share one, the hit indices have the other. Uninitialized
    // capacity-managed storage, overwritten for every box
    // (core/aligned_buffer.h).
    AlignedBuffer<double> scratch;
    AlignedBuffer<uint32_t> hit_scratch;
    size_t evals = 0;
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
      // Each box's members are copied in whole kGatherChunk steps, up to
      // kGatherChunk - 1 entries past their end: the next box overwrites
      // them, and the stride leaves room after the last one. A box rarely
      // holds more than one chunk, so the copy loop is predictable.
      const size_t stride =
          (cand_n + kGatherChunk - 1 + kLine - 1) / kLine * kLine;
      double* xs = scratch.EnsureCapacity(5 * stride);
      double* ys = xs + stride;
      double* zs = ys + stride;
      double* rs = zs + stride;
      double* d2s = rs + stride;
      uint32_t* hidx = hit_scratch.EnsureCapacity(cand_n);
      // Candidate index of the box's first resident: the block lists every
      // slot once, so each resident sits at exactly one index.
      size_t self_base = 0;
      size_t w = 0;
      for (int k = 0; k < block_count; ++k) {
        const size_t nb = blocks[k];
        const size_t u0 = static_cast<size_t>(starts[nb]);
        const size_t len = static_cast<size_t>(starts[nb + 1]) - u0;
        self_base = nb == b ? w : self_base;
        for (size_t q = 0; q < len; q += kGatherChunk) {
          Chunk::Load(a.x + u0 + q).Store(xs + w + q);
          Chunk::Load(a.y + u0 + q).Store(ys + w + q);
          Chunk::Load(a.z + u0 + q).Store(zs + w + q);
          Chunk::Load(a.radius + u0 + q).Store(rs + w + q);
        }
        w += len;
      }

      BIOSIM_HOT_LOOP_BEGIN();
      const int32_t row_end = starts[b + 1];
      for (int32_t t = starts[b]; t < row_end; ++t) {
        const double pix = a.x[t];
        const double piy = a.y[t];
        const double piz = a.z[t];
        const double ri = a.radius[t];
        const size_t self_c = self_base + static_cast<size_t>(t - starts[b]);
        double fx = a.fx[t];
        double fy = a.fy[t];
        double fz = a.fz[t];
        // Set when a hit's law answer is zero: adding +0.0 once at the
        // end equals adding it at each such hit (it only turns -0.0 into
        // +0.0, and a -0.0 sum stays -0.0 only while every addend is
        // -0.0), without lengthening the accumulation chain.
        bool zero_hit = false;
        // Eq. (1) (physics/interaction_force.h) on hit c, accumulated onto
        // the tractor force in candidate order. Returns 0 for the agent's
        // own slot, which is not an evaluation.
        const auto hit = [&](size_t c) -> size_t {
          double dx = pix - xs[c];
          double dy = piy - ys[c];
          double dz = piz - zs[c];
          double d2 = d2s[c];
          if (torus) {
            // The law sees the neighbor at pi - miv and recomputes the
            // separation from it.
            dx = pix - (pix - wrap(dx));
            dy = piy - (piy - wrap(dy));
            dz = piz - (piz - wrap(dz));
            d2 = (dx * dx + dy * dy) + dz * dz;
          }
          if (d2 <= 0.0) {
            if (c == self_c) {
              return 0;  // the agent's own slot: its d² is exactly zero
            }
            zero_hit = true;  // coincident centers
            return 1;
          }
          const double dist = std::sqrt(d2);
          const double rj = rs[c];
          const double delta = ri + rj - dist;
          if (delta <= 0.0) {
            zero_hit = true;
            return 1;
          }
          const double reduced = (ri * rj) / (ri + rj);
          const double magnitude =
              kappa * delta - gamma * std::sqrt(reduced * delta);
          const double scale = magnitude / dist;
          fx += dx * scale;
          fy += dy * scale;
          fz += dz * scale;
          return 1;
        };
        if (cand_n < kW) {
          // Too few candidates for one vector: distance test and law in
          // one scalar sweep, the same lane math as below.
          for (size_t c = 0; c < cand_n; ++c) {
            if (c == self_c) {
              continue;
            }
            double dx = pix - xs[c];
            double dy = piy - ys[c];
            double dz = piz - zs[c];
            if (torus) {
              dx = wrap(dx);
              dy = wrap(dy);
              dz = wrap(dz);
            }
            d2s[c] = (dx * dx + dy * dy) + dz * dz;
            if (d2s[c] <= r2) {
              evals += hit(c);
            }
          }
        } else {
          // Pass 1, the vector loop: the squared distance of every
          // candidate into the d² scratch. Each lane is a pure function of
          // its candidate, so the ragged end is one more vector over the
          // last W candidates, rewriting the overlapped lanes' values.
          const V pixv = V::Broadcast(pix);
          const V piyv = V::Broadcast(piy);
          const V pizv = V::Broadcast(piz);
          for (size_t u0 = 0; u0 < cand_n; u0 += kW) {
            const size_t u = u0 + kW <= cand_n ? u0 : cand_n - kW;
            V dx = pixv - V::Load(xs + u);
            V dy = piyv - V::Load(ys + u);
            V dz = pizv - V::Load(zs + u);
            if (torus) {
              // The scalar if / else-if, lane by lane: both masks are
              // taken from the unwrapped component.
              dx = simd::Select(simd::Gt(dx, half_edgev), dx - edgev,
                                simd::Select(simd::Lt(dx, neg_half_edgev),
                                             dx + edgev, dx));
              dy = simd::Select(simd::Gt(dy, half_edgev), dy - edgev,
                                simd::Select(simd::Lt(dy, neg_half_edgev),
                                             dy + edgev, dy));
              dz = simd::Select(simd::Gt(dz, half_edgev), dz - edgev,
                                simd::Select(simd::Lt(dz, neg_half_edgev),
                                             dz + edgev, dz));
            }
            const V d2 = (dx * dx + dy * dy) + dz * dz;
            d2.Store(d2s + u);
          }
          // Pass 2: branchless compaction of the hit indices. A plain
          // `if (d2 <= r2)` scan stalls on one mispredict per
          // unpredictable candidate; the unconditional store + conditional
          // increment compiles to store/setcc/add.
          size_t m = 0;
          for (size_t c = 0; c < cand_n; ++c) {
            hidx[m] = static_cast<uint32_t>(c);
            m += static_cast<size_t>(d2s[c] <= r2);
          }
          // Pass 3: the law on the hits, in candidate order.
          for (size_t h = 0; h < m; ++h) {
            evals += hit(hidx[h]);
          }
        }
        if (zero_hit) {
          fx += 0.0;
          fy += 0.0;
          fz += 0.0;
        }
        // Epilogue: ComputeDisplacement — zero below the adherence
        // threshold, else force * dt clamped to max_disp (math::ClampNorm).
        const double adherence = a.adherences[t];
        double vx = 0.0;
        double vy = 0.0;
        double vz = 0.0;
        if (!((fx * fx + fy * fy) + fz * fz <= adherence * adherence)) {
          vx = fx * dt;
          vy = fy * dt;
          vz = fz * dt;
          const double n2 = (vx * vx + vy * vy) + vz * vz;
          if (!(n2 <= max_disp * max_disp || n2 == 0.0)) {
            const double s = max_disp / std::sqrt(n2);
            vx = vx * s;
            vy = vy * s;
            vz = vz * s;
          }
        }
        a.fx[t] = vx;
        a.fy[t] = vy;
        a.fz[t] = vz;
      }
      BIOSIM_HOT_LOOP_END();
    }
    a.force_evaluations->fetch_add(evals, std::memory_order_relaxed);
  });
}

}  // namespace biosim::detail

#endif  // BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_
