// Per-step execution context handed to behaviors.
//
// Bundles everything a behavior may touch besides its own agent: the
// parameters, a deterministic per-agent RNG, and the effects buffer of the
// chunk it runs in. Every change a behavior makes beyond its own row (a
// birth, a death, a substance deposit) is appended to that buffer and
// applied after the pass, so parallel behaviors share no mutable state.
// Passing a context rather than a global Simulation keeps behaviors
// testable in isolation.
#ifndef BIOSIM_CORE_SIM_CONTEXT_H_
#define BIOSIM_CORE_SIM_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/math.h"
#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"

namespace biosim {

class DiffusionGrid;

/// A substance deposit requested by a behavior. Carries its target grid:
/// deposits buffered for different substances must not be collapsed into
/// one field (the pre-fix merge routed every deposit into the *first* grid).
struct PendingDeposit {
  Double3 position;
  double amount;
  DiffusionGrid* grid = nullptr;
};

/// What one chunk of the behaviors pass asks to change beyond its own rows,
/// each list in the row order the chunk ran. Chunks are contiguous
/// ascending row ranges, so reading the chunks in order yields the global
/// row order at any worker count: Simulation applies the deposits and
/// commits the removals and births that way, without a lock or a sort.
/// Cache-line aligned: workers append to neighboring slots at once.
struct alignas(64) BehaviorEffects {
  std::vector<NewAgentSpec> births;
  std::vector<AgentIndex> removals;
  std::vector<PendingDeposit> deposits;
};

class SimContext {
 public:
  SimContext(const Param& param, ResourceManager& rm, uint64_t step,
             BehaviorEffects& effects)
      : param_(param), rm_(rm), step_(step), effects_(effects) {}

  const Param& param() const { return param_; }
  ResourceManager& rm() { return rm_; }
  uint64_t step() const { return step_; }

  /// The buffer of the chunk this context runs: Cell::Divide appends
  /// births, Cell::RemoveFromSimulation removals, DepositSubstance deposits.
  BehaviorEffects& effects() { return effects_; }

  /// RNG stream that depends only on (seed, agent uid, step): results are
  /// reproducible across thread counts and iteration orders.
  Random RandomFor(AgentUid uid) const {
    return Random::ForStream(param_.random_seed, uid, step_);
  }

  /// Buffer a deposit of `amount` of the context's default substance (the
  /// first grid) into the voxel containing `pos`. Simulation applies the
  /// buffered deposits after the behaviors pass in agent-index order — the
  /// same order at any thread count, so the concentration field stays
  /// bitwise reproducible. No-op when no diffusion grid is attached.
  void DepositSubstance(const Double3& pos, double amount) {
    DepositSubstance(pos, amount, diffusion_grid);
  }

  /// Deposit into an explicit grid (resolve named substances with
  /// FindSubstance); same buffering contract as above. No-op when `grid` is
  /// nullptr, matching a grid-less context.
  void DepositSubstance(const Double3& pos, double amount,
                        DiffusionGrid* grid) {
    if (grid != nullptr) {
      effects_.deposits.push_back({pos, amount, grid});
    }
  }

  /// The registered grid for `name`, or nullptr when absent (or when the
  /// context has no grid list installed).
  DiffusionGrid* FindSubstance(const std::string& name) const;

  /// Extracellular substance grid, if the model registered one (may be
  /// nullptr; set by the Simulation before behaviors run). Reads
  /// (GetConcentration / GetGradient) are safe from parallel behaviors; for
  /// writes use DepositSubstance — IncreaseConcentrationBy is not safe
  /// against concurrent callers and would make the sum order (and therefore
  /// the field bits) depend on thread scheduling.
  DiffusionGrid* diffusion_grid = nullptr;

  /// Every registered substance grid (set by the Simulation alongside
  /// diffusion_grid); backs FindSubstance for name-routed deposits. May be
  /// nullptr for contexts built without a Simulation (unit tests).
  const std::vector<std::unique_ptr<DiffusionGrid>>* diffusion_grids = nullptr;

 private:
  const Param& param_;
  ResourceManager& rm_;
  uint64_t step_;
  BehaviorEffects& effects_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_SIM_CONTEXT_H_
