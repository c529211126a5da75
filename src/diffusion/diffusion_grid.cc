#include "diffusion/diffusion_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/analysis.h"

namespace biosim {

DiffusionGrid::DiffusionGrid(std::string substance_name, double min_bound,
                             double max_bound, size_t resolution,
                             double diffusion_coefficient,
                             double decay_constant)
    : name_(std::move(substance_name)),
      min_(min_bound),
      max_(max_bound),
      res_(resolution),
      d_coef_(diffusion_coefficient),
      mu_(decay_constant) {
  if (resolution < 2) {
    throw std::invalid_argument("DiffusionGrid resolution must be >= 2");
  }
  if (max_bound <= min_bound) {
    throw std::invalid_argument("DiffusionGrid needs max_bound > min_bound");
  }
  h_ = (max_ - min_) / static_cast<double>(res_);
  c_.assign(res_ * res_ * res_, 0.0);
  c_next_.assign(c_.size(), 0.0);
}

double DiffusionGrid::MaxStableTimestep() const {
  if (d_coef_ <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return h_ * h_ / (6.0 * d_coef_);
}

void DiffusionGrid::Step(double dt, ExecMode mode) {
  double max_dt = MaxStableTimestep();
  size_t substeps = std::max<size_t>(1, static_cast<size_t>(std::ceil(dt / max_dt)));
  double sub_dt = dt / static_cast<double>(substeps);
  for (size_t s = 0; s < substeps; ++s) {
    SubStep(sub_dt, mode);
  }
}

void DiffusionGrid::SubStep(double dt, ExecMode mode) {
  double alpha = d_coef_ * dt / (h_ * h_);
  double decay = mu_ * dt;
  size_t r = res_;

  // Parallelize over z-slabs: each voxel update reads only its 6-neighborhood
  // of the current field and writes its own cell of the next field.
  ParallelFor(mode, r, [&](size_t z) {
    // Per-voxel stencil: the diffusion hot loop (biosim-lint enforces no
    // dynamic dispatch creeping into marked regions).
    BIOSIM_HOT_LOOP_BEGIN();
    for (size_t y = 0; y < r; ++y) {
      for (size_t x = 0; x < r; ++x) {
        size_t i = Index(x, y, z);
        double center = c_[i];
        // Out-of-domain neighbors mirror the center (zero flux).
        auto neighbor = [&](int64_t nx, int64_t ny, int64_t nz) -> double {
          if (nx < 0 || ny < 0 || nz < 0 || nx >= static_cast<int64_t>(r) ||
              ny >= static_cast<int64_t>(r) || nz >= static_cast<int64_t>(r)) {
            return center;
          }
          return c_[Index(static_cast<size_t>(nx), static_cast<size_t>(ny),
                          static_cast<size_t>(nz))];
        };
        int64_t xi = static_cast<int64_t>(x);
        int64_t yi = static_cast<int64_t>(y);
        int64_t zi = static_cast<int64_t>(z);
        double lap = neighbor(xi - 1, yi, zi) + neighbor(xi + 1, yi, zi) +
                     neighbor(xi, yi - 1, zi) + neighbor(xi, yi + 1, zi) +
                     neighbor(xi, yi, zi - 1) + neighbor(xi, yi, zi + 1) -
                     6.0 * center;
        c_next_[i] = center + alpha * lap - decay * center;
      }
    }
    BIOSIM_HOT_LOOP_END();
  });

  std::swap(c_, c_next_);
}

bool DiffusionGrid::VoxelOf(const Double3& pos, size_t* x, size_t* y,
                            size_t* z) const {
  // Positions exactly on the max faces belong to the last voxel (the clamp
  // below handles the division landing on res_). The old `>= max_` test
  // silently rejected them, so an agent clamped to the simulation boundary
  // lost every deposit it made.
  if (pos.x < min_ || pos.y < min_ || pos.z < min_ || pos.x > max_ ||
      pos.y > max_ || pos.z > max_) {
    return false;
  }
  *x = static_cast<size_t>((pos.x - min_) / h_);
  *y = static_cast<size_t>((pos.y - min_) / h_);
  *z = static_cast<size_t>((pos.z - min_) / h_);
  *x = std::min(*x, res_ - 1);
  *y = std::min(*y, res_ - 1);
  *z = std::min(*z, res_ - 1);
  return true;
}

void DiffusionGrid::IncreaseConcentrationBy(const Double3& pos, double amount) {
  // Not safe from concurrent callers: the += below is a plain read-modify-
  // write, and even an atomic one would make the sum order (and the field
  // bits) depend on thread scheduling. Behaviors must deposit through
  // SimContext::DepositSubstance, which buffers per worker and applies in
  // agent-index order after the parallel pass.
#if defined(_OPENMP)
  assert(omp_in_parallel() == 0 &&
         "IncreaseConcentrationBy called from a parallel region; use "
         "SimContext::DepositSubstance");
#endif
  size_t x, y, z;
  if (VoxelOf(pos, &x, &y, &z)) {
    c_[Index(x, y, z)] += amount;
    return;
  }
  // A deposit outside [min_, max_]^3 is a modeling bug (substance silently
  // vanishing); count it and warn once rather than failing silently.
  ++dropped_deposits_;
  if (!warned_dropped_) {
    warned_dropped_ = true;
    std::fprintf(stderr,
                 "biosim: WARNING: deposit of substance '%s' at (%g, %g, %g) "
                 "is outside the grid domain [%g, %g]^3 and was dropped "
                 "(counted in dropped_deposits(); reported once)\n",
                 name_.c_str(), pos.x, pos.y, pos.z, min_, max_);
  }
}

double DiffusionGrid::GetConcentration(const Double3& pos) const {
  size_t x, y, z;
  if (!VoxelOf(pos, &x, &y, &z)) {
    return 0.0;
  }
  return c_[Index(x, y, z)];
}

Double3 DiffusionGrid::GetGradient(const Double3& pos) const {
  size_t x, y, z;
  if (!VoxelOf(pos, &x, &y, &z)) {
    return {};
  }
  auto at = [&](size_t xi, size_t yi, size_t zi) { return c_[Index(xi, yi, zi)]; };

  double gx, gy, gz;
  // Central differences in the interior, one-sided at the faces.
  if (x == 0) {
    gx = (at(x + 1, y, z) - at(x, y, z)) / h_;
  } else if (x == res_ - 1) {
    gx = (at(x, y, z) - at(x - 1, y, z)) / h_;
  } else {
    gx = (at(x + 1, y, z) - at(x - 1, y, z)) / (2.0 * h_);
  }
  if (y == 0) {
    gy = (at(x, y + 1, z) - at(x, y, z)) / h_;
  } else if (y == res_ - 1) {
    gy = (at(x, y, z) - at(x, y - 1, z)) / h_;
  } else {
    gy = (at(x, y + 1, z) - at(x, y - 1, z)) / (2.0 * h_);
  }
  if (z == 0) {
    gz = (at(x, y, z + 1) - at(x, y, z)) / h_;
  } else if (z == res_ - 1) {
    gz = (at(x, y, z) - at(x, y, z - 1)) / h_;
  } else {
    gz = (at(x, y, z + 1) - at(x, y, z - 1)) / (2.0 * h_);
  }
  return {gx, gy, gz};
}

double DiffusionGrid::TotalAmount() const {
  double sum = 0.0;
  for (double v : c_) {
    sum += v;
  }
  return sum;
}

double DiffusionGrid::MaxConcentration() const {
  double m = 0.0;
  for (double v : c_) {
    m = std::max(m, v);
  }
  return m;
}

}  // namespace biosim
