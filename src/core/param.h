// Simulation parameters.
//
// Default values follow the BioDynaMo v0.0.9 defaults the paper benchmarks
// against: κ = 2 (repulsion), γ = 1 (attraction), timestep 0.01, maximum
// per-step displacement 3 µm. Length unit is micrometers, time unit is hours.
#ifndef BIOSIM_CORE_PARAM_H_
#define BIOSIM_CORE_PARAM_H_

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace biosim {

/// What happens at the simulation-cube faces.
enum class BoundaryMode : uint8_t {
  kClamp,  // positions clamp to the faces (the BioDynaMo default)
  kOpen,   // unbounded: agents may leave the cube
  kTorus,  // periodic: positions wrap, distances are minimum-image
};

/// How the spatial shard partition sizes its z-plane ranges
/// (docs/sharding.md). Lives here rather than in spatial/ because Param
/// carries it and core cannot depend on spatial.
enum class ShardBalance : uint8_t {
  /// Equal plane counts per shard, ignoring where the agents are.
  kStatic,
  /// Greedy prefix over the per-plane agent histogram, recomputed every
  /// step: each shard takes planes until it holds its share of the
  /// remaining load. Never changes results — only which shard does the
  /// work.
  kAdaptive,
};

struct Param {
  // --- space -----------------------------------------------------------
  /// Simulation space is the cube [min_bound, max_bound]^3.
  double min_bound = 0.0;
  double max_bound = 1000.0;
  /// Face behavior. kTorus needs the uniform-grid environment and the CPU
  /// mechanics; the kd-tree baseline and the GPU kernels implement clamped
  /// and open space only. Simulation::Validate enforces the pairing.
  BoundaryMode boundary_mode = BoundaryMode::kClamp;

  double SpaceEdge() const { return max_bound - min_bound; }

  // --- time ------------------------------------------------------------
  /// Integration timestep (hours).
  double simulation_time_step = 0.01;
  /// Upper bound on the length of the displacement applied to an agent in a
  /// single step (µm); Eq. (1) text: "the length of the final displacement
  /// vector is generally limited by an upper bound".
  double simulation_max_displacement = 3.0;

  // --- mechanics (Eq. 1) -------------------------------------------------
  /// Repulsion coefficient κ.
  double repulsion_coefficient = 2.0;
  /// Attraction coefficient γ.
  double attraction_coefficient = 1.0;
  /// Default adherence of newly created cells; the net force must exceed an
  /// agent's adherence before any displacement is applied.
  double default_adherence = 0.4;
  /// Default mass density of cells (used for the diameter/volume/mass link).
  double default_density = 1.0;

  // --- neighborhood -------------------------------------------------------
  /// Extra margin added to the largest agent diameter when sizing uniform
  /// grid boxes / the kd-tree query radius, so that agents that will touch
  /// within one step are already seen as neighborhood candidates.
  double interaction_radius_margin = 0.0;

  // --- reproducibility ------------------------------------------------------
  uint64_t random_seed = 42;

  // --- execution --------------------------------------------------------
  /// Worker threads for CPU-parallel operations; 0 = hardware concurrency.
  uint32_t num_threads = 0;

  /// Partition the domain into this many spatial shards along the grid's
  /// z-plane lattice (docs/sharding.md): each shard owns the agents binned
  /// into its plane range, builds a private occupancy-compacted CSR, and
  /// runs behaviors + forces over its owned rows, with ghost agents within
  /// one interaction radius of the shard faces exchanged through the
  /// in-process Communicator before every force pass. 0 disables sharding
  /// (the classic single-grid pipeline); 1 runs the sharded pipeline with a
  /// degenerate single shard (useful to isolate the machinery). StateHash
  /// is bitwise-identical for every shard count — verified by the parity
  /// harness's cpu_sharded row and the CI shard×thread determinism sweep.
  /// Needs the CPU backend and the uniform grid (Simulation::Validate);
  /// rejected when the shard count exceeds the lattice's z-plane count.
  uint32_t num_shards = 0;

  /// Plane-range sizing policy when num_shards > 0.
  ShardBalance shard_balance = ShardBalance::kStatic;

  /// Throw std::invalid_argument on inconsistent settings. Called by the
  /// Simulation constructor so misconfiguration fails fast, and again by
  /// Simulation::Validate at every Simulate().
  void Validate() const {
    auto fail = [](const std::string& what) {
      throw std::invalid_argument("Param: " + what);
    };
    if (!(max_bound > min_bound)) {
      fail("max_bound must exceed min_bound");
    }
    if (!(simulation_time_step > 0.0)) {
      fail("simulation_time_step must be positive");
    }
    if (simulation_max_displacement < 0.0) {
      fail("simulation_max_displacement must be non-negative");
    }
    if (repulsion_coefficient < 0.0 || attraction_coefficient < 0.0) {
      fail("force coefficients must be non-negative");
    }
    if (default_adherence < 0.0) {
      fail("default_adherence must be non-negative");
    }
    if (!(default_density > 0.0)) {
      fail("default_density must be positive");
    }
    if (interaction_radius_margin < 0.0) {
      fail("interaction_radius_margin must be non-negative");
    }
  }
};

}  // namespace biosim

#endif  // BIOSIM_CORE_PARAM_H_
