// Sharded pipeline property battery (docs/sharding.md): for every scenario,
// the sharded run must be BYTE-FOR-BYTE the unsharded run — identical
// per-step StateHash sequence for every shard count, every thread count, and
// every balance mode. Sharding is a work-assignment optimisation; if any bit
// of any trajectory moves, the halo protocol or the merge discipline broke.
//
// The scenarios pin the protocol's edge cases: agents sitting exactly on
// shard face planes, divisions whose daughters land across a boundary,
// torus wrap (including the K == 2 duplicate-ghost case), the degenerate
// K == 1 shard, clustered occupancy under adaptive balancing, and a
// mass-migration step where the whole population teleports across the
// domain between steps. The shard runtime is an Environment, so its windows
// are also checked through the generic callback path: by neighbor queries
// under a ForwardingEnvironment, and by a backend that only queries.
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/behaviors/grow_divide.h"
#include "core/behaviors/random_walk.h"
#include "core/behaviors/secretion.h"
#include "core/simulation.h"
#include "diffusion/diffusion_grid.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/forwarding_environment.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

/// Hands MechanicalForcesOp a view of the step's environment that answers
/// neighbor queries and returns no force windows, so every neighbor is read
/// through Environment::ForEachNeighborWithinRadius.
class QueryView : public Environment {
 public:
  explicit QueryView(const Environment& env) : env_(env) {}
  void Update(const ResourceManager&, const Param&, ExecMode,
              OpProfile* = nullptr) override {}
  void ForEachNeighborWithinRadius(AgentIndex query, const ResourceManager& rm,
                                   double radius,
                                   NeighborFn fn) const override {
    env_.ForEachNeighborWithinRadius(query, rm, radius, fn);
  }
  double interaction_radius() const override {
    return env_.interaction_radius();
  }
  const char* name() const override { return "query-view"; }

 private:
  const Environment& env_;
};

/// A mechanics backend that reads neighbors only through queries.
class QueryOnlyBackend : public MechanicsBackend {
 public:
  void Step(ResourceManager& rm, const Environment& env, const Param& param,
            ExecMode mode, OpProfile*) override {
    const QueryView view(env);
    op_.ComputeDisplacements(rm, view, param, mode);
    EXPECT_FALSE(op_.last_used_fast_path());
    op_.ApplyDisplacements(rm, param, mode);
  }
  const char* name() const override { return "query-only"; }
  bool supports_torus() const override { return true; }

 private:
  MechanicalForcesOp op_;
};

enum class Population {
  kRandom,     // benchmark-B uniform fill
  kClustered,  // all agents in a thin central slab (skewed plane loads)
  kLattice,    // benchmark-A grid with divisions
};

struct Scenario {
  Population population = Population::kRandom;
  BoundaryMode boundary = BoundaryMode::kClamp;
  uint32_t shards = 0;
  uint32_t threads = 1;
  ShardBalance balance = ShardBalance::kStatic;
  uint64_t steps = 8;
  bool diffusion = true;
  bool query_only_backend = false;
};

std::vector<uint64_t> HashTrajectory(const Scenario& sc) {
  Param p;
  p.random_seed = 42;
  p.num_threads = sc.threads;
  p.num_shards = sc.shards;
  p.shard_balance = sc.balance;
  p.boundary_mode = sc.boundary;
  p.max_bound = 240.0;
  Simulation sim(p);
  switch (sc.population) {
    case Population::kRandom:
      sim.CreateRandomCells(160, 8.0);
      break;
    case Population::kClustered:
      // Three thin z-slabs: most planes empty, so static and adaptive
      // splits produce very different plane ranges — the hash must not care.
      for (int i = 0; i < 120; ++i) {
        double t = static_cast<double>(i);
        sim.AddCell({10.0 + 1.8 * t, 120.0 + 0.4 * (i % 17),
                     10.0 + 100.0 * (i % 3) + 0.05 * t},
                    8.0);
      }
      break;
    case Population::kLattice:
      sim.Create3DCellGrid(4, 48.0, 8.0, 16.0, /*growth_rate=*/120000.0);
      break;
  }
  if (sc.query_only_backend) {
    sim.SetMechanicsBackend(std::make_unique<QueryOnlyBackend>());
  }
  if (sc.diffusion) {
    auto grid = std::make_unique<DiffusionGrid>("oxygen", 0.0, 240.0, 12, 80.0,
                                                /*decay_constant=*/0.01);
    grid->Initialize([](const Double3&) { return 1.0; });
    sim.AddDiffusionGrid(std::move(grid));
  }
  for (AgentIndex i = 0; i < sim.rm().size(); ++i) {
    if (sc.population != Population::kLattice) {
      sim.rm().AttachBehavior(i, std::make_unique<RandomWalk>(60.0));
    }
    if (sc.diffusion) {
      sim.rm().AttachBehavior(
          i, std::make_unique<Secretion>(i % 2 == 0 ? -0.4 : 0.7));
    }
  }
  std::vector<uint64_t> hashes;
  hashes.push_back(sim.StateHash());
  for (uint64_t s = 0; s < sc.steps; ++s) {
    sim.Simulate(1);
    hashes.push_back(sim.StateHash());
  }
  return hashes;
}

/// Reference (shards = 0) vs sharded trajectories for one population.
void ExpectShardCountInvariant(Population pop, BoundaryMode boundary,
                               ShardBalance balance = ShardBalance::kStatic) {
  Scenario ref;
  ref.population = pop;
  ref.boundary = boundary;
  const auto reference = HashTrajectory(ref);
  for (uint32_t shards : {1u, 2u, 3u, 4u, 8u}) {
    Scenario sc = ref;
    sc.shards = shards;
    sc.balance = balance;
    EXPECT_EQ(HashTrajectory(sc), reference)
        << "shards=" << shards << " diverged from the unsharded run";
  }
}

TEST(ShardingTest, RandomPopulationClampIsShardCountInvariant) {
  ExpectShardCountInvariant(Population::kRandom, BoundaryMode::kClamp);
}

TEST(ShardingTest, RandomPopulationTorusIsShardCountInvariant) {
  // Torus wrap: shard 0 and shard K-1 are halo neighbors; K == 2 delivers
  // both face planes of each shard to the *same* peer on distinct channels.
  ExpectShardCountInvariant(Population::kRandom, BoundaryMode::kTorus);
}

TEST(ShardingTest, ClusteredPopulationAdaptiveBalanceIsShardCountInvariant) {
  ExpectShardCountInvariant(Population::kClustered, BoundaryMode::kClamp,
                            ShardBalance::kAdaptive);
}

TEST(ShardingTest, DivisionAcrossShardBoundaryIsShardCountInvariant) {
  // GrowDivide: daughters spawn at random offsets, some across the plane a
  // shard boundary sits on; the deferred commit + next-step repartition must
  // hand them to the right owner without disturbing a single bit.
  ExpectShardCountInvariant(Population::kLattice, BoundaryMode::kClamp);
}

TEST(ShardingTest, FaceStraddlingAgentsAreShardCountInvariant) {
  // Agents placed exactly ON the box-plane z-coordinates that become shard
  // faces: ownership must tie-break identically (floor binning) no matter
  // how many shards the plane separates.
  Scenario ref;
  ref.population = Population::kClustered;
  ref.steps = 6;
  auto make = [&](uint32_t shards) {
    Param p;
    p.random_seed = 7;
    p.num_shards = shards;
    p.max_bound = 240.0;
    Simulation sim(p);
    // interaction radius = diameter 8 -> box planes at z = 0, 8, 16, ...
    for (int i = 0; i < 96; ++i) {
      double z = 8.0 * static_cast<double>(i % 30);  // exactly on plane faces
      sim.AddCell({2.0 + 2.4 * (i % 97), 120.0, z}, 8.0);
      sim.rm().AttachBehavior(i, std::make_unique<RandomWalk>(40.0));
    }
    std::vector<uint64_t> hashes;
    for (uint64_t s = 0; s < ref.steps; ++s) {
      sim.Simulate(1);
      hashes.push_back(sim.StateHash());
    }
    return hashes;
  };
  const auto reference = make(0);
  EXPECT_EQ(make(1), reference);
  EXPECT_EQ(make(2), reference);
  EXPECT_EQ(make(5), reference);
}

TEST(ShardingTest, MassMigrationFallbackIsShardCountInvariant) {
  // Teleport the whole population to the far end of the domain mid-run: the
  // per-step repartition recomputes ownership from scratch, so even a 100%
  // migration step must stay bitwise (no incremental-ownership shortcut to
  // fall out of sync with).
  auto run = [](uint32_t shards) {
    Param p;
    p.random_seed = 13;
    p.num_shards = shards;
    p.max_bound = 240.0;
    Simulation sim(p);
    sim.CreateRandomCells(120, 8.0);
    for (AgentIndex i = 0; i < sim.rm().size(); ++i) {
      sim.rm().AttachBehavior(i, std::make_unique<RandomWalk>(60.0));
    }
    sim.Simulate(3);
    for (auto& pos : sim.rm().positions()) {
      pos.z = 239.0 - 0.9 * pos.z;  // everyone crosses most shard boundaries
    }
    sim.Simulate(3);
    return sim.StateHash();
  };
  const uint64_t reference = run(0);
  EXPECT_EQ(run(1), reference);
  EXPECT_EQ(run(4), reference);
  EXPECT_EQ(run(8), reference);
}

TEST(ShardingTest, ThreadByShardSweepIsBitwiseIdentical) {
  // The full matrix the CI job sweeps: hash must be a function of the
  // scenario only, never of the worker count or the shard count.
  Scenario ref;
  ref.population = Population::kRandom;
  ref.boundary = BoundaryMode::kTorus;
  const auto reference = HashTrajectory(ref);
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (uint32_t threads : {1u, 2u, 8u}) {
      Scenario sc = ref;
      sc.shards = shards;
      sc.threads = threads;
      EXPECT_EQ(HashTrajectory(sc), reference)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardingTest, ShardedRunIsRepeatable) {
  Scenario sc;
  sc.population = Population::kRandom;
  sc.shards = 4;
  sc.threads = 8;
  EXPECT_EQ(HashTrajectory(sc), HashTrajectory(sc));
}

TEST(ShardingTest, MoreShardsThanPlanesIsRejectedLoudly) {
  // Satellite fix: an over-sharded domain must fail with the descriptive
  // ShardPartition error, not run with silently empty shards.
  Param p;
  p.num_shards = 64;
  p.max_bound = 100.0;  // diameter 20 boxes -> 5 z-planes on the torus
  p.boundary_mode = BoundaryMode::kTorus;
  Simulation sim(p);
  sim.CreateRandomCells(32, 20.0);
  try {
    sim.Simulate(1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards exceed"), std::string::npos)
        << e.what();
  }
}

TEST(ShardingTest, ShardRuntimeExposesLoadAndHaloStats) {
  Param p;
  p.num_shards = 4;
  p.max_bound = 240.0;
  Simulation sim(p);
  sim.CreateRandomCells(200, 8.0);
  for (AgentIndex i = 0; i < sim.rm().size(); ++i) {
    sim.rm().AttachBehavior(i, std::make_unique<RandomWalk>(80.0));
  }
  sim.Simulate(3);
  const ShardRuntime* rt = sim.shard_runtime();
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->shards(), 4u);
  size_t owned_total = 0;
  for (uint32_t k = 0; k < rt->shards(); ++k) {
    owned_total += rt->owned_rows(k).size();
  }
  EXPECT_EQ(owned_total, sim.rm().size());  // ownership is a partition
  uint64_t ghosts = 0;
  for (uint64_t g : rt->ghosts_received()) {
    ghosts += g;
  }
  EXPECT_GT(ghosts, 0u);  // random fill always populates face planes
  EXPECT_GT(rt->communicator().messages_sent(), 0u);
  EXPECT_EQ(rt->communicator().PendingMessages(), 0u);  // no protocol leaks
}

/// Displacements of one force pass over `env`, after updating it.
std::vector<Double3> Displacements(const ResourceManager& rm, const Param& p,
                                   Environment& env, bool* fused) {
  env.Update(rm, p, ExecMode::kParallel);
  MechanicalForcesOp op;
  op.ComputeDisplacements(rm, env, p, ExecMode::kParallel);
  *fused = op.last_used_fast_path();
  EXPECT_GT(op.last_force_evaluations(), 0u);
  return op.displacements();
}

bool SameBits(const std::vector<Double3>& a, const std::vector<Double3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Double3)) == 0;
}

TEST(ShardingTest, CallbackPathOverShardWindowsMatchesFusedPassBitwise) {
  // A ForwardingEnvironment returns no force windows, so around a shard
  // runtime it walks the shard windows through per-agent neighbor queries:
  // the oracle of the fused pass over the same windows and of the
  // unsharded grid.
  for (BoundaryMode boundary : {BoundaryMode::kOpen, BoundaryMode::kTorus}) {
    for (uint32_t workers : {1u, 2u, 8u}) {
      Param p;
      p.random_seed = 11;
      p.num_threads = workers;
      p.boundary_mode = boundary;
      p.max_bound = 120.0;
      Simulation sim(p);  // sets the worker count
      sim.CreateRandomCells(600, 10.0);
      const ResourceManager& rm = sim.rm();
      bool fused = false;
      UniformGridEnvironment grid;
      const auto reference = Displacements(rm, p, grid, &fused);
      EXPECT_TRUE(fused);
      for (uint32_t shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << "torus=" << (boundary == BoundaryMode::kTorus)
                     << " workers=" << workers << " shards=" << shards);
        auto owned = std::make_unique<ShardRuntime>(shards,
                                                    ShardBalance::kStatic);
        ShardRuntime& runtime = *owned;
        ForwardingEnvironment callback(std::move(owned));
        EXPECT_TRUE(SameBits(Displacements(rm, p, callback, &fused),
                             reference));
        EXPECT_FALSE(fused);
        EXPECT_TRUE(SameBits(Displacements(rm, p, runtime, &fused),
                             reference));
        EXPECT_TRUE(fused);
      }
    }
  }
}

TEST(ShardingTest, QueryOnlyBackendRunsShardedOnTheUnshardedHash) {
  // A backend that reads the environment runs sharded: the shard runtime
  // answers its queries from the owner shard's window.
  for (BoundaryMode boundary : {BoundaryMode::kClamp, BoundaryMode::kTorus}) {
    Scenario ref;
    ref.boundary = boundary;
    const auto reference = HashTrajectory(ref);
    for (uint32_t shards : {0u, 2u}) {
      Scenario sc = ref;
      sc.shards = shards;
      sc.query_only_backend = true;
      EXPECT_EQ(HashTrajectory(sc), reference)
          << "torus=" << (boundary == BoundaryMode::kTorus)
          << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace biosim
