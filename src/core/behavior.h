// Behavior framework: per-agent programs executed once per timestep.
//
// This is the modeler-facing extension point: a model is defined by attaching
// behaviors (grow-and-divide, secretion, chemotaxis, ...) to agents. Concrete
// behaviors shipped with the library live in core/behaviors/.
#ifndef BIOSIM_CORE_BEHAVIOR_H_
#define BIOSIM_CORE_BEHAVIOR_H_

namespace biosim {

class Cell;
class SimContext;

/// Base class for agent behaviors. A behavior object is immutable and shared:
/// the ResourceManager owns it once, and a daughter created by division runs
/// its mother's objects. Run() may therefore be called at the same time on
/// one object for different cells. It may mutate the agent it runs for and
/// enqueue structural changes (division, death) through the context;
/// structural changes are applied after all behaviors of the step have run.
/// Per-agent mutable state belongs in an SoA column, never in a behavior.
class Behavior {
 public:
  virtual ~Behavior() = default;

  /// Execute one timestep of this behavior for `cell`.
  virtual void Run(Cell& cell, SimContext& ctx) const = 0;

  /// Human-readable name for profiling and diagnostics.
  virtual const char* name() const = 0;

  /// Whether a daughter cell created by division inherits this behavior.
  bool copy_to_new = true;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_BEHAVIOR_H_
