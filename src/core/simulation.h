// Simulation: the public façade that ties the engine together.
//
// Owns the parameters, the SoA agent storage, the spatial environment, the
// mechanics backend, and optional diffusion grids, and runs the per-step
// pipeline:
//
//   1. "cell behaviors"       -- run every agent's behaviors (proliferation)
//   2. "commit"               -- apply deferred divisions / removals
//   3. "neighborhood update"  -- rebuild the environment (kd-tree / grid)
//   4. "mechanical forces"    -- backend step (CPU or GPU offload)
//   5. "diffusion"            -- advance extracellular substances
//
// Every operation's wall time is accumulated in profile(), which is exactly
// the data behind the paper's Fig. 3.
#ifndef BIOSIM_CORE_SIMULATION_H_
#define BIOSIM_CORE_SIMULATION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/profiler.h"
#include "core/resource_manager.h"
#include "core/shard_runtime.h"
#include "core/thread_pool.h"
#include "diffusion/diffusion_grid.h"
#include "physics/mechanics_backend.h"
#include "spatial/environment.h"

namespace biosim {

class Simulation {
 public:
  /// Constructs with a uniform-grid environment and the CPU backend; both
  /// are replaceable before (or between) Simulate() calls.
  explicit Simulation(Param param);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  Simulation(Simulation&&) = default;
  Simulation& operator=(Simulation&&) = default;

  // --- wiring -----------------------------------------------------------
  Param& param() { return param_; }
  const Param& param() const { return param_; }
  ResourceManager& rm() { return rm_; }
  const ResourceManager& rm() const { return rm_; }

  void SetEnvironment(std::unique_ptr<Environment> env);
  Environment& environment() { return *env_; }

  void SetMechanicsBackend(std::unique_ptr<MechanicsBackend> backend);
  MechanicsBackend& mechanics_backend() { return *backend_; }

  void AddDiffusionGrid(std::unique_ptr<DiffusionGrid> grid);
  /// First registered grid, or the one with the given substance name;
  /// nullptr if absent.
  DiffusionGrid* diffusion_grid();
  DiffusionGrid* diffusion_grid(const std::string& substance);
  size_t diffusion_grid_count() const { return diffusion_grids_.size(); }

  /// Serial vs multithreaded execution of all engine operations (the paper's
  /// "serial" vs "N threads" variants).
  void SetExecMode(ExecMode mode) { mode_ = mode; }
  ExecMode exec_mode() const { return mode_; }

  // --- population helpers ------------------------------------------------
  /// Create one agent; returns a Cell view valid until the next structural
  /// change.
  AgentIndex AddCell(const Double3& position, double diameter);

  /// The paper's benchmark A initial condition: `cells_per_dim`^3 cells of
  /// equal volume on a regular 3D lattice with the given spacing, each with
  /// a GrowDivide behavior.
  void Create3DCellGrid(size_t cells_per_dim, double spacing, double diameter,
                        double divide_threshold, double growth_rate);

  /// The paper's benchmark B initial condition: `count` cells uniformly
  /// random in the simulation cube. With
  /// param.simulation_max_displacement == 0 the density stays constant.
  void CreateRandomCells(size_t count, double diameter);

  // --- execution ----------------------------------------------------------
  /// The one check of whether this wiring can run: Param::Validate, then
  /// every rule between Param and the environment's and backend's
  /// capabilities. Throws std::invalid_argument naming both knobs, e.g.
  /// "boundary_mode=torus is not supported by mechanics backend 'gpu'".
  void Validate() const;

  /// Validate(), then advance `steps` timesteps through the full pipeline.
  void Simulate(uint64_t steps);

  uint64_t step() const { return step_; }
  /// Set the simulation clock, e.g. when resuming from a checkpoint.
  /// Behavior RNG streams mix the step index (SimContext::RandomFor), so a
  /// resumed run only reproduces the uninterrupted one if it continues at
  /// the step the checkpoint was taken.
  void SetStep(uint64_t step) { step_ = step; }
  OpProfile& profile() { return profile_; }

  /// Bitwise fingerprint of the mutable simulation state: step counter, the
  /// full agent population (core/state_hash.h) and every diffusion field.
  /// Two runs of the same seeded config are deterministic iff their per-step
  /// hash sequences are identical (docs/determinism.md).
  uint64_t StateHash() const;

  /// The shard runtime driving the sharded pipeline, or nullptr when
  /// param.num_shards == 0 or before the first sharded step (observability
  /// reads per-shard stats through this).
  const ShardRuntime* shard_runtime() const { return shard_runtime_.get(); }

 private:
  void RunBehaviors();
  /// Behaviors pass of the sharded pipeline: each shard runs its owned rows
  /// (ascending); substance deposits are tagged with their row and merged
  /// globally in row order — the exact sequence the unsharded pass applies.
  void RunBehaviorsSharded();
  /// The sharded counterpart of "neighborhood update" + "mechanical
  /// forces": partition, halo exchange, per-shard grids, sharded force pass.
  void RunShardedOps();

  Param param_;
  ResourceManager rm_;
  std::unique_ptr<Environment> env_;
  std::unique_ptr<MechanicsBackend> backend_;
  std::vector<std::unique_ptr<DiffusionGrid>> diffusion_grids_;
  ExecMode mode_ = ExecMode::kParallel;
  uint64_t step_ = 0;
  /// CreateRandomCells invocations so far: folded into the RNG seed so
  /// repeated fills draw fresh positions (call 0 keeps the historical
  /// stream byte-identical).
  uint64_t random_cells_calls_ = 0;
  std::unique_ptr<ShardRuntime> shard_runtime_;
  OpProfile profile_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_SIMULATION_H_
