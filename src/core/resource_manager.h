// Structs-of-arrays agent storage.
//
// Every agent attribute lives in its own contiguous array, exactly like the
// BioDynaMo v0.0.9 backend the paper builds on. The paper relies on this
// layout twice: (a) the mechanical-interaction offload copies only the
// attribute arrays it needs to the device, without gathering per-agent
// structs first, and (b) Improvement II sorts these arrays by Z-order so
// spatially local agents become memory-local.
//
// Structural changes (division, death) are *deferred*: behaviors append
// them to their chunk's effects buffer (core/sim_context.h) and the
// simulation hands them to CommitStructuralChanges() between operations, so
// attribute arrays are stable while an operation iterates them in parallel.
#ifndef BIOSIM_CORE_RESOURCE_MANAGER_H_
#define BIOSIM_CORE_RESOURCE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/agent_uid.h"
#include "core/behavior.h"
#include "core/math.h"

namespace biosim {

/// Plain-data description of an agent to be inserted. Behaviors are attached
/// by the caller after insertion or travel inside the spec as pointers to
/// objects the receiving manager already owns (a daughter's are its
/// mother's).
struct NewAgentSpec {
  Double3 position;
  double diameter = 10.0;
  double adherence = 0.4;
  double density = 1.0;
  Double3 tractor_force;
  std::vector<const Behavior*> behaviors;
};

/// Behavior ownership: the manager owns every behavior object once, from its
/// AttachBehavior call until the manager is destroyed or RestorePopulation
/// resets it. Rows hold shared `const Behavior*`; a division copies the
/// mother's pointers and a death frees only the row's pointer vector. So an
/// object outlives every agent that runs it, and the number of objects is
/// bounded by the number of AttachBehavior calls (model setup), not by
/// births. Moving the manager keeps every object at its address.
class ResourceManager {
 public:
  ResourceManager() = default;

  // Movable, not copyable (the manager owns its behavior objects).
  ResourceManager(ResourceManager&&) = default;
  ResourceManager& operator=(ResourceManager&&) = default;

  /// Number of live agents (excludes pending insertions/removals).
  size_t size() const { return positions_.size(); }
  bool empty() const { return positions_.empty(); }

  /// Preallocate capacity for `n` agents across all attribute arrays.
  void Reserve(size_t n);

  /// Insert an agent immediately. Only safe outside parallel operations
  /// (model setup, commit phase). Returns the row index.
  AgentIndex AddAgent(NewAgentSpec spec);

  /// Apply one behaviors pass's structural changes: first remove the rows
  /// in `removals` (any order; a row listed twice dies once) with
  /// swap-with-last from the highest row down, then append `births` in
  /// order, assigning uids in that order. Row indices held across a commit
  /// are invalidated. Only safe outside parallel operations. Returns the
  /// number of structural changes applied.
  size_t CommitStructuralChanges(std::vector<AgentIndex> removals,
                                 std::vector<NewAgentSpec> births);

  /// Reorder all attribute arrays so that new_row i holds old_row perm[i].
  /// `perm` must be a permutation of [0, size). Used by Z-order sorting.
  void ApplyPermutation(const std::vector<AgentIndex>& perm);

  // --- attribute arrays (SoA) ------------------------------------------
  std::vector<Double3>& positions() { return positions_; }
  const std::vector<Double3>& positions() const { return positions_; }
  std::vector<double>& diameters() { return diameters_; }
  const std::vector<double>& diameters() const { return diameters_; }
  std::vector<double>& volumes() { return volumes_; }
  const std::vector<double>& volumes() const { return volumes_; }
  std::vector<double>& adherences() { return adherences_; }
  const std::vector<double>& adherences() const { return adherences_; }
  std::vector<double>& densities() { return densities_; }
  const std::vector<double>& densities() const { return densities_; }
  std::vector<Double3>& tractor_forces() { return tractor_forces_; }
  const std::vector<Double3>& tractor_forces() const { return tractor_forces_; }
  const std::vector<AgentUid>& uids() const { return uids_; }

  const std::vector<const Behavior*>& behaviors_of(AgentIndex i) const {
    return behaviors_[i];
  }
  /// Take ownership of `b` and append it to row `i`'s behaviors.
  void AttachBehavior(AgentIndex i, std::unique_ptr<Behavior> b) {
    owned_behaviors_.push_back(std::move(b));
    behaviors_[i].push_back(owned_behaviors_.back().get());
  }

  /// Largest diameter over all agents; defines the interaction radius and
  /// the uniform-grid box size. O(n).
  double LargestDiameter() const;

  /// Bounding box of all agent centers.
  AABBd Bounds() const;

  /// Total cell volume (conserved across divisions; used by tests).
  double TotalVolume() const;

  /// Next uid that will be assigned (checkpointing).
  AgentUid next_uid() const { return next_uid_; }

  /// Replace the whole population with restored state (checkpoint load).
  /// All vectors must have equal length; behaviors reset to empty lists and
  /// every owned behavior object is freed.
  /// Throws std::invalid_argument on inconsistent sizes.
  void RestorePopulation(std::vector<Double3> positions,
                         std::vector<double> diameters,
                         std::vector<double> volumes,
                         std::vector<double> adherences,
                         std::vector<double> densities,
                         std::vector<Double3> tractor_forces,
                         std::vector<AgentUid> uids, AgentUid next_uid);

 private:
  void AppendRow(NewAgentSpec&& spec);
  void RemoveRowSwap(AgentIndex idx);

  std::vector<Double3> positions_;
  std::vector<double> diameters_;
  std::vector<double> volumes_;
  std::vector<double> adherences_;
  std::vector<double> densities_;
  std::vector<Double3> tractor_forces_;
  std::vector<AgentUid> uids_;
  std::vector<std::vector<const Behavior*>> behaviors_;
  std::vector<std::unique_ptr<const Behavior>> owned_behaviors_;

  AgentUid next_uid_ = 0;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_RESOURCE_MANAGER_H_
