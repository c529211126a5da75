#include "physics/mechanical_forces_op.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/simd.h"
#include "physics/displacement.h"
#include "physics/interaction_force.h"
#include "physics/simd_kernel_dispatch.h"

namespace biosim {

namespace {

/// Precondition of the fused kernel: the 27-box scheme only covers one box
/// length.
void CheckRadiusFitsBox(double radius, double box_length) {
  if (radius > box_length + 1e-12) {
    throw std::invalid_argument(
        "MechanicalForcesOp: interaction radius " + std::to_string(radius) +
        " exceeds the grid box length " + std::to_string(box_length));
  }
}

}  // namespace

void MechanicalForcesOp::ComputeDisplacements(const ResourceManager& rm,
                                              const Environment& env,
                                              const Param& param,
                                              ExecMode mode) {
  // The environment decides which CSR windows, if any, the fused kernel
  // streams; kd-tree, null and forwarding environments return none and
  // take the generic path below.
  const std::span<const ShardForceInput> inputs = env.ForceInputs();
  if (!inputs.empty()) {
    RunFusedPasses(rm, inputs, env.interaction_radius(),
                   inputs.front().box_length, param, mode);
    return;
  }
  used_fast_path_ = false;

  size_t n = rm.size();
  displacements_.assign(n, Double3{});

  const auto& positions = rm.positions();
  const auto& diameters = rm.diameters();
  const auto& adherences = rm.adherences();
  const auto& tractor = rm.tractor_forces();

  const ForceParams<double> fp{param.repulsion_coefficient,
                               param.attraction_coefficient};
  const double dt = param.simulation_time_step;
  const double max_disp = param.simulation_max_displacement;
  const double radius = env.interaction_radius();
  const bool torus = param.boundary_mode == BoundaryMode::kTorus;
  const double edge = param.SpaceEdge();

  std::atomic<size_t> evals{0};

  ParallelForChunks(mode, n, [&](size_t begin, size_t end) {
    size_t local_evals = 0;
    for (size_t i = begin; i < end; ++i) {
      const Double3 pi = positions[i];
      const double ri = diameters[i] / 2.0;
      Double3 force = tractor[i];

      env.ForEachNeighborWithinRadius(
          i, rm, radius, [&](AgentIndex j, double) {
            // On a torus the neighbor may be an image across a face; shift
            // it so p_i - p_j is the minimum-image separation.
            Double3 pj = torus ? pi - MinImageVector(pi, positions[j], edge)
                               : positions[j];
            force += SphereSphereForce(pi, ri, pj, diameters[j] / 2.0, fp);
            ++local_evals;
          });

      displacements_[i] =
          ComputeDisplacement(force, adherences[i], dt, max_disp);
    }
    evals.fetch_add(local_evals, std::memory_order_relaxed);
  });

  force_evaluations_ = evals.load(std::memory_order_relaxed);
}

void MechanicalForcesOp::ComputeDisplacementsSharded(
    const ResourceManager& rm, std::span<const ShardForceInput> inputs,
    double interaction_radius, double box_length, const Param& param,
    ExecMode mode) {
  RunFusedPasses(rm, inputs, interaction_radius, box_length, param, mode);
}

void MechanicalForcesOp::RunFusedPasses(
    const ResourceManager& rm, std::span<const ShardForceInput> inputs,
    double interaction_radius, double box_length, const Param& param,
    ExecMode mode) {
  const size_t n = rm.size();
  displacements_.assign(n, Double3{});
  used_fast_path_ = true;
  if (n == 0) {
    force_evaluations_ = 0;
    return;
  }
  CheckRadiusFitsBox(interaction_radius, box_length);

  std::atomic<size_t> evals{0};
  detail::FusedPassArgs args;
  args.dt = param.simulation_time_step;
  args.max_disp = param.simulation_max_displacement;
  args.repulsion = param.repulsion_coefficient;
  args.attraction = param.attraction_coefficient;
  args.r2 = interaction_radius * interaction_radius;
  args.torus = param.boundary_mode == BoundaryMode::kTorus;
  args.edge = param.SpaceEdge();
  args.mode = mode;
  args.force_evaluations = &evals;

  // Function-pointer dispatch happens once per pass, outside the hot-loop
  // markers; WidthModeFromEnv is re-read per pass so tests can flip
  // BIOSIM_SIMD in-process (every width writes the same bits). Each input's
  // owned boxes present the candidate sequence the global grid would, and
  // the inputs' boxes partition the non-empty box set, so every row is
  // written by exactly one pass.
  const detail::FusedPassFn pass =
      detail::SelectFusedSimdKernel(simd::WidthModeFromEnv());
  const Double3* positions = rm.positions().data();
  const double* diameters = rm.diameters().data();
  const Double3* tractor = rm.tractor_forces().data();
  const double* adherences = rm.adherences().data();
  for (const ShardForceInput& in : inputs) {
    // Stage the window's force inputs in member order (see FusedPassArgs):
    // plain copies and an exact halving, so no FP result changes. The
    // owned members are the contiguous runs of the owned boxes; only they
    // get a tractor force and adherence, and the kernel leaves their
    // displacements in the tractor arrays. One plain allocation held for
    // this input only: kept across steps, or taken from the aligned
    // allocator, the block stayed in the heap and raised tissue_turnover's
    // peak RSS by 2-4 MB; a plain block this size is mapped and returned
    // whole.
    const size_t members = in.view.num_members;
    const size_t owned_begin =
        static_cast<size_t>(in.view.box_starts[in.first_box]);
    const size_t owned_end =
        static_cast<size_t>(in.view.box_starts[in.first_box + in.num_boxes]);
    const size_t stride = members + detail::kGatherChunk - 1;
    const auto staged = std::make_unique_for_overwrite<double[]>(8 * stride);
    double* x = staged.get();
    double* y = x + stride;
    double* z = y + stride;
    double* radius = z + stride;
    double* adherence = radius + stride;
    double* fx = adherence + stride;
    double* fy = fx + stride;
    double* fz = fy + stride;
    const int32_t* agents = in.view.box_agents;
    ParallelFor(mode, members, [&](size_t u) {
      const int32_t j = agents[u];
      x[u] = positions[j].x;
      y[u] = positions[j].y;
      z[u] = positions[j].z;
      radius[u] = diameters[j] / 2.0;
      if (u >= owned_begin && u < owned_end) {
        adherence[u] = adherences[j];
        fx[u] = tractor[j].x;
        fy[u] = tractor[j].y;
        fz[u] = tractor[j].z;
      }
    });
    for (size_t u = members; u < stride; ++u) {
      x[u] = y[u] = z[u] = radius[u] = 0.0;  // read past a run, never used
    }
    args.x = x;
    args.y = y;
    args.z = z;
    args.radius = radius;
    args.adherences = adherence;
    args.fx = fx;
    args.fy = fy;
    args.fz = fz;
    args.view = in.view;
    args.first_box = in.first_box;
    args.num_boxes = in.num_boxes;
    pass(args);
    // Scatter the owned members' displacements back to their rows.
    ParallelFor(mode, owned_end - owned_begin, [&](size_t k) {
      const size_t u = owned_begin + k;
      displacements_[static_cast<size_t>(agents[u])] = {fx[u], fy[u], fz[u]};
    });
  }

  force_evaluations_ = evals.load(std::memory_order_relaxed);
}

void MechanicalForcesOp::ApplyDisplacements(ResourceManager& rm,
                                            const Param& param,
                                            ExecMode mode) {
  auto& positions = rm.positions();
  size_t n = rm.size();
  ParallelFor(mode, n, [&](size_t i) {
    positions[i] = ApplyBoundSpace(positions[i] + displacements_[i], param);
  });
}

}  // namespace biosim
