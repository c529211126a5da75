// Extracellular substance diffusion on a regular 3D lattice.
//
// The paper's related-work section argues that keeping the simulation on the
// host lets BioDynaMo run substance diffusion efficiently on the multi-core
// CPU *independently of* the GPU-offloaded mechanics; this module is that
// substrate. It solves
//
//     dc/dt = D * laplacian(c) - mu * c + sources
//
// with an explicit central-difference scheme (FTCS) and zero-flux (closed)
// boundaries. Agents couple to the field through IncreaseConcentrationBy
// (secretion), GetConcentration and GetGradient (chemotaxis).
#ifndef BIOSIM_DIFFUSION_DIFFUSION_GRID_H_
#define BIOSIM_DIFFUSION_DIFFUSION_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/math.h"
#include "core/thread_pool.h"

namespace biosim {

class DiffusionGrid {
 public:
  /// A lattice of `resolution`^3 voxels spanning [min_bound, max_bound]^3.
  /// `diffusion_coefficient` D in µm²/h, `decay_constant` mu in 1/h. The
  /// boundary is zero-flux: substance is conserved up to decay.
  DiffusionGrid(std::string substance_name, double min_bound, double max_bound,
                size_t resolution, double diffusion_coefficient,
                double decay_constant);

  const std::string& substance_name() const { return name_; }
  size_t resolution() const { return res_; }
  double voxel_length() const { return h_; }
  size_t num_voxels() const { return c_.size(); }

  /// Largest stable timestep for the explicit scheme: dt <= h^2 / (6 D).
  double MaxStableTimestep() const;

  /// Advance the field by `dt` hours. Asserts stability in debug builds and
  /// sub-steps automatically if `dt` exceeds the stable limit.
  void Step(double dt, ExecMode mode = ExecMode::kParallel);

  /// Deposit `amount` (concentration units) into the voxel containing `pos`.
  /// Positions exactly on a max face land in the last voxel (agents clamped
  /// to the simulation boundary still deposit); positions outside
  /// [min, max]^3 are dropped, counted in dropped_deposits() and warned
  /// about once. NOT safe from concurrent callers (plain read-modify-write;
  /// asserts it is outside any OpenMP parallel region). Behaviors running
  /// under the parallel scheduler must use SimContext::DepositSubstance
  /// instead, which defers deposits and applies them in deterministic
  /// agent-index order.
  void IncreaseConcentrationBy(const Double3& pos, double amount);

  /// Deposits rejected for being outside the domain — nonzero means the
  /// model is leaking substance (a warning is printed on the first drop).
  uint64_t dropped_deposits() const { return dropped_deposits_; }

  /// Concentration of the voxel containing `pos` (0 outside the domain).
  double GetConcentration(const Double3& pos) const;

  /// Central-difference gradient at the voxel containing `pos`.
  Double3 GetGradient(const Double3& pos) const;

  /// Initialize every voxel with `fn(center)`.
  template <typename F>
  void Initialize(F&& fn) {
    for (size_t z = 0; z < res_; ++z) {
      for (size_t y = 0; y < res_; ++y) {
        for (size_t x = 0; x < res_; ++x) {
          c_[Index(x, y, z)] = fn(VoxelCenter(x, y, z));
        }
      }
    }
  }

  /// Sum over all voxels (conservation tests).
  double TotalAmount() const;
  double MaxConcentration() const;

  const std::vector<double>& raw() const { return c_; }

  Double3 VoxelCenter(size_t x, size_t y, size_t z) const {
    return {min_ + (static_cast<double>(x) + 0.5) * h_,
            min_ + (static_cast<double>(y) + 0.5) * h_,
            min_ + (static_cast<double>(z) + 0.5) * h_};
  }

 private:
  size_t Index(size_t x, size_t y, size_t z) const {
    return (z * res_ + y) * res_ + x;
  }
  /// Voxel coordinate of a position; false if outside the domain.
  bool VoxelOf(const Double3& pos, size_t* x, size_t* y, size_t* z) const;

  void SubStep(double dt, ExecMode mode);

  std::string name_;
  double min_, max_, h_;
  size_t res_;
  double d_coef_, mu_;
  std::vector<double> c_, c_next_;
  uint64_t dropped_deposits_ = 0;
  bool warned_dropped_ = false;
};

}  // namespace biosim

#endif  // BIOSIM_DIFFUSION_DIFFUSION_GRID_H_
