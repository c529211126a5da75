// Step-to-step battery for the grid's reused state (docs/perf.md
// "Compacted CSR"): one UniformGridEnvironment updated step after step keeps
// its buffers and its occupancy bitmap, which each build and each lattice
// change clears only where the previous build set it; no bit of an earlier
// build may survive. After every Update the reused grid must be
// byte-identical — occupied keys, CSR runs, traversal list, the slot of
// every box — to a from-scratch build of the same population, and must
// match the brute-force member sets. Anything less would break the bitwise
// determinism contract, because the fused force kernel streams the CSR runs
// directly.
//
// Each scenario steps a population under a different motion regime: drift
// on a torus, a bounded cloud whose lattice stays fixed, hoppers between
// clusters, a one-box domain, growth, removal, mass motion, a stationary
// population, a lattice that shrinks and grows back, an open domain whose
// bounds move every step, and sparse jumpers that empty whole bitmap words.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "spatial/uniform_grid.h"

#include "../test_util.h"
#include "grid_oracle.h"

namespace biosim {
namespace {

/// Assert every queryable structure of `inc` equals `ref` bit for bit, and
/// both match the brute-force member sets.
void ExpectGridsIdentical(const UniformGridEnvironment& inc,
                          const UniformGridEnvironment& ref,
                          const ResourceManager& rm, const char* where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(inc.total_boxes(), ref.total_boxes());
  EXPECT_EQ(inc.box_length(), ref.box_length());
  EXPECT_EQ(inc.grid_min().x, ref.grid_min().x);
  EXPECT_EQ(inc.grid_min().y, ref.grid_min().y);
  EXPECT_EQ(inc.grid_min().z, ref.grid_min().z);
  EXPECT_EQ(inc.is_torus(), ref.is_torus());
  testutil::ExpectSameCsr(inc.csr(), ref.csr());
  for (size_t b = 0; b < inc.total_boxes(); ++b) {
    ASSERT_EQ(inc.csr().slot_of(b), ref.csr().slot_of(b)) << "box " << b;
  }
  testutil::ExpectGridMatchesOracle(inc, rm);
}

/// Step `rm` `steps` times through `move`, updating `inc` in place (reused
/// state) and rebuilding a fresh environment as reference after each move.
/// `move(step)` mutates positions (or the population) arbitrarily.
template <typename MoveFn>
void RunMotionProperty(ResourceManager& rm, const Param& param,
                       UniformGridEnvironment& inc, uint64_t steps,
                       MoveFn move) {
  inc.Update(rm, param, ExecMode::kSerial);
  for (uint64_t s = 0; s < steps; ++s) {
    move(s);
    inc.Update(rm, param, ExecMode::kParallel);
    UniformGridEnvironment ref;
    ref.Update(rm, param, ExecMode::kSerial);
    std::string where = "step " + std::to_string(s);
    ExpectGridsIdentical(inc, ref, rm, where.c_str());
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

Param TorusParam(double edge) {
  Param p;
  p.boundary_mode = BoundaryMode::kTorus;
  p.min_bound = 0.0;
  p.max_bound = edge;
  return p;
}

TEST(IncrementalGridTest, TorusRandomWalkMatchesFullRebuildEveryStep) {
  // The design workload: periodic space, fixed geometry, a slow drift that
  // re-bins a few percent of agents per step.
  Param param = TorusParam(96.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 96.0, 8.0, /*seed=*/7);
  UniformGridEnvironment inc;
  Random rng(11);
  RunMotionProperty(rm, param, inc, 12, [&](uint64_t) {
    for (auto& p : rm.positions()) {
      for (double* c : {&p.x, &p.y, &p.z}) {
        *c += rng.Uniform(-1.5, 1.5);
        // Torus wrap, exactly as displacement does it.
        if (*c < 0.0) *c += 96.0;
        if (*c >= 96.0) *c -= 96.0;
      }
    }
  });
  EXPECT_EQ(inc.rebuilds(), 13u);
}

TEST(IncrementalGridTest, BoundedCloudWithCornerSentinelsStaysIncremental) {
  // Non-torus grids derive grid_min from rm.Bounds(), so the window (and
  // its bitmap) is only reused while the bounding box is bit-stable.
  // Eight stationary sentinel agents pin the corners; everyone else
  // jitters inside, so every step rebuilds over the same reused window.
  Param param;  // open boundary
  ResourceManager rm;
  for (double x : {0.0, 80.0}) {
    for (double y : {0.0, 80.0}) {
      for (double z : {0.0, 80.0}) {
        NewAgentSpec s;
        s.position = {x, y, z};
        s.diameter = 8.0;
        rm.AddAgent(std::move(s));
      }
    }
  }
  testutil::FillRandomCells(&rm, 300, 4.0, 76.0, 8.0, /*seed=*/13);
  UniformGridEnvironment inc;
  inc.Update(rm, param, ExecMode::kSerial);
  const Double3 pinned = inc.grid_min();
  Random rng(5);
  RunMotionProperty(rm, param, inc, 10, [&](uint64_t) {
    auto& pos = rm.positions();
    for (size_t i = 8; i < pos.size(); ++i) {  // sentinels stay put
      for (double* c : {&pos[i].x, &pos[i].y, &pos[i].z}) {
        *c = std::min(79.0, std::max(1.0, *c + rng.Uniform(-2.0, 2.0)));
      }
    }
  });
  EXPECT_EQ(inc.grid_min().x, pinned.x);
  EXPECT_EQ(inc.grid_min().y, pinned.y);
  EXPECT_EQ(inc.grid_min().z, pinned.z);
}

TEST(IncrementalGridTest, ClusteredHoppingMatchesFullRebuild) {
  // Two dense clusters and a trickle of agents teleporting between them:
  // per-box deltas with several arrivals/departures at once, far apart in
  // the flat box order.
  Param param = TorusParam(128.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 150, 10.0, 20.0, 8.0, /*seed=*/3);
  testutil::FillRandomCells(&rm, 150, 100.0, 110.0, 8.0, /*seed=*/4);
  UniformGridEnvironment inc;
  Random rng(17);
  RunMotionProperty(rm, param, inc, 10, [&](uint64_t s) {
    auto& pos = rm.positions();
    // Five hoppers per step swap clusters; everyone else is stationary
    // (in-box moves and no-op boxes must both be handled).
    for (int k = 0; k < 5; ++k) {
      size_t i = rng.UniformInt(pos.size());
      double shift = pos[i].x < 64.0 ? 90.0 : -90.0;
      pos[i].x += shift;
    }
    (void)s;
  });
}

TEST(IncrementalGridTest, DegenerateSingleBoxDomainIsHandled) {
  // Everything lives in one box (the torus edge is less than two
  // interaction radii): the sort has no key bits and the single run is
  // rewritten in place.
  Param param = TorusParam(16.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 24, 0.0, 16.0, 10.0, /*seed=*/9);
  UniformGridEnvironment inc;
  Random rng(23);
  RunMotionProperty(rm, param, inc, 6, [&](uint64_t) {
    for (auto& p : rm.positions()) {
      p.x += rng.Uniform(-1.0, 1.0);
      if (p.x < 0.0) p.x += 16.0;
      if (p.x >= 16.0) p.x -= 16.0;
    }
  });
  EXPECT_EQ(inc.total_boxes(), 1u);
}

TEST(IncrementalGridTest, PopulationGrowthForcesFullRebuild) {
  // A division (deferred insertion committed between steps) changes the
  // agent count; the reused buffers must grow and the rebuild must produce
  // the reference structures.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 64.0, 8.0, /*seed=*/21);
  UniformGridEnvironment inc;
  Random rng(29);
  RunMotionProperty(rm, param, inc, 6, [&](uint64_t s) {
    if (s == 2 || s == 4) {
      NewAgentSpec spec;
      spec.position = rng.UniformInCube(0.0, 64.0);
      spec.diameter = 8.0;
      std::vector<NewAgentSpec> births;
      births.push_back(std::move(spec));
      rm.CommitStructuralChanges({}, std::move(births));
    } else {
      rm.positions()[s].x = 32.0;  // keep some motion in the quiet steps
    }
  });
  EXPECT_EQ(inc.rebuilds(), 7u);
}

TEST(IncrementalGridTest, RemovalForcesFullRebuild) {
  // Swap-with-last removal renumbers rows and shrinks the population: the
  // previous build's runs and slots must not leak into the next one.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 64.0, 8.0, /*seed=*/31);
  UniformGridEnvironment inc;
  RunMotionProperty(rm, param, inc, 4, [&](uint64_t s) {
    if (s == 1) {
      rm.CommitStructuralChanges({7, 42}, {});
    }
  });
  EXPECT_EQ(inc.csr().box_agents().size(), 98u);
}

TEST(IncrementalGridTest, MassMotionFallsBackToFullRebuild) {
  // Every agent crosses a box face: the whole occupied set moves, so every
  // stale slot entry of the previous build must be rejected.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 200, 0.0, 64.0, 8.0, /*seed=*/37);
  UniformGridEnvironment inc;
  RunMotionProperty(rm, param, inc, 2, [&](uint64_t) {
    for (auto& p : rm.positions()) {  // everyone shifts one full box
      p.x += 8.0;
      if (p.x >= 64.0) p.x -= 64.0;
    }
  });
  EXPECT_EQ(inc.rebuilds(), 3u);
}

TEST(IncrementalGridTest, StationaryPopulationIsANoOpPatch) {
  // Nothing moves: each rebuild over the reused state reproduces the
  // previous step's bytes exactly.
  Param param = TorusParam(64.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 64.0, 8.0, /*seed=*/41);
  UniformGridEnvironment inc;
  inc.Update(rm, param, ExecMode::kSerial);
  const std::vector<int32_t> agents = inc.csr().box_agents();
  const std::vector<uint32_t> keys = inc.csr().occupied_keys();
  RunMotionProperty(rm, param, inc, 3, [&](uint64_t) {});
  EXPECT_EQ(inc.csr().box_agents(), agents);
  EXPECT_EQ(inc.csr().occupied_keys(), keys);
}

TEST(IncrementalGridTest, LatticeShrinksAndGrowsBackWithoutStaleBits) {
  // Lattice A (24^3 boxes), then a smaller lattice B (12^3: the cells grow
  // to twice the box edge), then A again, in one reused grid. Each change
  // re-keys the window, so the bits of the build before it must be cleared
  // under the old keys. The cloud fills only the lower half of the torus:
  // B's upper words hold none of its own bits but all of A's lower-plane
  // bits, so a bit A left behind would claim an empty box of B.
  Param param = TorusParam(96.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 96.0, 4.0, /*seed=*/43);
  for (auto& p : rm.positions()) {
    p.z /= 2.0;
  }
  UniformGridEnvironment inc;
  const double diameters[] = {8.0, 8.0, 4.0, 8.0, 4.0, 4.0};
  RunMotionProperty(rm, param, inc, std::size(diameters), [&](uint64_t s) {
    for (double& d : rm.diameters()) {
      d = diameters[s];
    }
    rm.positions()[s].x = 48.0;  // and a little motion
  });
  EXPECT_EQ(inc.total_boxes(), 24u * 24u * 24u);
}

TEST(IncrementalGridTest, SparseJumpersLeaveNoStaleWords) {
  // A few agents jump anywhere on a 16^3 torus every step, so most of the
  // 64-box occupancy words they set are empty in the next build: each
  // build must clear the words the previous one set.
  Param param = TorusParam(128.0);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 20, 0.0, 128.0, 8.0, /*seed=*/53);
  UniformGridEnvironment inc;
  Random rng(59);
  RunMotionProperty(rm, param, inc, 8, [&](uint64_t) {
    for (auto& p : rm.positions()) {
      p = rng.UniformInCube(0.0, 128.0);
    }
  });
}

TEST(IncrementalGridTest, OpenDomainWithMovingBoundsMatchesFullRebuild) {
  // Open space: grid_min and the box counts follow rm.Bounds(), which this
  // cloud moves every step — drifting, spreading out, then pulling back
  // in — so every Update re-keys the window.
  Param param;  // open boundary
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 60.0, 8.0, /*seed=*/47);
  UniformGridEnvironment inc;
  RunMotionProperty(rm, param, inc, 10, [&](uint64_t s) {
    const double scale = s < 5 ? 1.15 : 1.0 / 1.15;
    for (auto& p : rm.positions()) {
      p = {p.x * scale + 3.0, p.y * scale - 1.0, p.z * scale + 0.5};
    }
  });
}

TEST(IncrementalGridTest, CsrAgentCountGuardThrowsPastInt32) {
  // The CSR offsets are int32 (shared with the GPU layout); the scan would
  // wrap silently past 2^31-1 agents. The guard is static so it is testable
  // without allocating 16 GiB of agents.
  EXPECT_NO_THROW(UniformGridEnvironment::CheckCsrAgentCount(0));
  EXPECT_NO_THROW(UniformGridEnvironment::CheckCsrAgentCount(1u << 20));
  EXPECT_NO_THROW(UniformGridEnvironment::CheckCsrAgentCount(
      static_cast<size_t>(INT32_MAX)));
  EXPECT_THROW(UniformGridEnvironment::CheckCsrAgentCount(
                   static_cast<size_t>(INT32_MAX) + 1),
               std::length_error);
  EXPECT_THROW(
      UniformGridEnvironment::CheckCsrAgentCount(size_t{1} << 40),
      std::length_error);
}

}  // namespace
}  // namespace biosim
