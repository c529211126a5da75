#include "spatial/uniform_grid.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "../test_util.h"
#include "physics/displacement.h"
#include "grid_oracle.h"
#include "spatial/shard_grid.h"

namespace biosim {
namespace {

TEST(UniformGridTest, BoxLengthIsInteractionRadius) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 100.0, 12.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 12.0);
  EXPECT_DOUBLE_EQ(env.interaction_radius(), 12.0);
}

TEST(UniformGridTest, FixedBoxLengthOverrides) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 100.0, 12.0);
  Param param;
  UniformGridEnvironment env(/*fixed_box_length=*/25.0);
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 25.0);
}

/// Run `fn` with the OpenMP worker count set to `threads`, restoring the
/// previous count afterwards.
template <typename Fn>
void WithThreads(uint32_t threads, Fn fn) {
  const uint32_t before = HardwareThreads();
  SetNumThreads(threads);
  fn();
  SetNumThreads(before);
}

Param TorusParam(double edge) {
  Param p;
  p.boundary_mode = BoundaryMode::kTorus;
  p.min_bound = 0.0;
  p.max_bound = edge;
  return p;
}

TEST(UniformGridTest, EveryAgentIsInItsBoxChain) {
  // Each box's member list (Fig. 5's chain, stored as one CSR run) holds
  // exactly the agents whose position maps to that box, each once.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 200, 0.0, 50.0, 8.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  testutil::ExpectGridMatchesOracle(env, rm);
  std::set<int32_t> seen(env.csr().box_agents().begin(),
                         env.csr().box_agents().end());
  EXPECT_EQ(seen.size(), rm.size());
}

TEST(UniformGridTest, OracleMatchesAcrossThreadsAndBoundaries) {
  // 20k agents split the build into several chunks in every phase (bin,
  // radix passes, run extraction), so chunk seams are exercised — in the
  // dense case (20 agents per box) every seam falls inside a box's run.
  // The result must equal the brute-force member sets and be
  // byte-identical for every worker count, on open and periodic lattices.
  for (const double edge : {400.0, 100.0}) {
    ResourceManager rm;
    testutil::FillRandomCells(&rm, 20000, 0.0, edge, 10.0, /*seed=*/5);
    for (const Param& param : {Param{}, TorusParam(edge)}) {
      UniformGridEnvironment reference;
      reference.Update(rm, param, ExecMode::kSerial);
      testutil::ExpectGridMatchesOracle(reference, rm);
      for (uint32_t threads : {1u, 2u, 4u}) {
        UniformGridEnvironment env;
        WithThreads(threads,
                    [&] { env.Update(rm, param, ExecMode::kParallel); });
        SCOPED_TRACE(::testing::Message() << "edge " << edge << " threads "
                                          << threads << " torus "
                                          << env.is_torus());
        testutil::ExpectGridMatchesOracle(env, rm);
        testutil::ExpectSameCsr(env.csr(), reference.csr());
      }
    }
  }
}

TEST(UniformGridTest, OracleMatchesOnShortAxes) {
  // Axes with fewer than 3 boxes: a 2- and a 1-box torus (reduced offset
  // ranges) and a clamped domain of 1-2 boxes per axis.
  struct Case {
    Param param;
    double hi;
    double diameter;
  };
  Param clamp;
  clamp.max_bound = 50.0;
  for (const Case& c : {Case{TorusParam(100.0), 100.0, 40.0},
                        Case{TorusParam(100.0), 100.0, 60.0},
                        Case{clamp, 50.0, 30.0}}) {
    ResourceManager rm;
    testutil::FillRandomCells(&rm, 120, 0.0, c.hi, c.diameter, /*seed=*/3);
    for (uint32_t threads : {1u, 2u, 4u}) {
      UniformGridEnvironment env;
      WithThreads(threads,
                  [&] { env.Update(rm, c.param, ExecMode::kParallel); });
      ASSERT_LE(env.num_boxes_axis().x, 2);
      testutil::ExpectGridMatchesOracle(env, rm);
    }
  }
}

TEST(UniformGridTest, EmptyAndSingleAgentPopulations) {
  for (size_t n : {size_t{0}, size_t{1}}) {
    ResourceManager rm;
    testutil::FillRandomCells(&rm, n, 0.0, 50.0, 10.0);
    for (const Param& param : {Param{}, TorusParam(50.0)}) {
      UniformGridEnvironment env;
      env.Update(rm, param, ExecMode::kParallel);
      testutil::ExpectGridMatchesOracle(env, rm);
      EXPECT_EQ(env.occupied_boxes(), n);
      if (n == 1) {
        EXPECT_TRUE(testutil::CollectNeighbors(env, rm, 0, env.box_length())
                        .empty());
      }
    }
  }
}

TEST(UniformGridTest, MatchesWholeLatticeShardGridByteForByte) {
  // The uniform grid is the one-window, no-ghost case of the shard CSR:
  // a ShardGrid configured over every plane of the same lattice and fed
  // every row must build the identical bytes.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 3000, 0.0, 150.0, 10.0, /*seed=*/8);
  for (const Param& param : {Param{}, TorusParam(150.0)}) {
    UniformGridEnvironment env;
    env.Update(rm, param, ExecMode::kParallel);
    ShardGrid whole;
    whole.Configure(env.geometry(), 0, env.num_boxes_axis().z);
    std::vector<int32_t> rows(rm.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<int32_t>(i);
    }
    whole.Update(rows, rm.positions().data());
    testutil::ExpectSameCsr(env.csr(), whole);
  }
}

TEST(UniformGridTest, TorusNeighborsMatchMinimumImageBruteForce) {
  // O(n^2) reference under periodic wrap: every agent within the radius by
  // minimum-image distance, including neighbors across the faces.
  const double edge = 60.0;
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, edge, 10.0, /*seed=*/19);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(edge), ExecMode::kParallel);
  const double r = env.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    std::vector<AgentIndex> brute;
    for (AgentIndex j = 0; j < rm.size(); ++j) {
      if (j != q &&
          MinImageVector(rm.positions()[q], rm.positions()[j], edge)
                  .SquaredNorm() <= r * r) {
        brute.push_back(j);
      }
    }
    ASSERT_EQ(testutil::CollectNeighbors(env, rm, q, r), brute)
        << "query " << q;
  }
}

TEST(UniformGridTest, ParallelBuildFindsSameSets) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, 60.0, 10.0);
  Param param;
  UniformGridEnvironment serial, parallel;
  serial.Update(rm, param, ExecMode::kSerial);
  parallel.Update(rm, param, ExecMode::kParallel);
  double r = serial.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); q += 17) {
    EXPECT_EQ(testutil::CollectNeighbors(serial, rm, q, r),
              testutil::CollectNeighbors(parallel, rm, q, r));
  }
}

TEST(UniformGridTest, MatchesBruteForceOnRandomCloud) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 100.0, 10.0, /*seed=*/99);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  double radius = env.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); q += 11) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, radius),
              testutil::BruteForceNeighbors(rm, q, radius))
        << "query " << q;
  }
}

TEST(UniformGridTest, SmallerQueryRadiusFiltersCorrectly) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, 40.0, 10.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // Query at half the box length must still be exact.
  for (AgentIndex q = 0; q < rm.size(); q += 23) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, 5.0),
              testutil::BruteForceNeighbors(rm, q, 5.0));
  }
}

TEST(UniformGridTest, AgentsOnDomainFaces) {
  // Agents exactly on the grid's min/max corners exercise the clamping.
  ResourceManager rm;
  for (double x : {0.0, 100.0}) {
    for (double y : {0.0, 100.0}) {
      for (double z : {0.0, 100.0}) {
        NewAgentSpec s;
        s.position = {x, y, z};
        s.diameter = 10.0;
        rm.AddAgent(std::move(s));
      }
    }
  }
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, 10.0),
              testutil::BruteForceNeighbors(rm, q, 10.0));
  }
}

TEST(UniformGridTest, DenseClusterInOneBox) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 64, 10.0, 11.0, 10.0);  // all in one box
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  auto n = testutil::CollectNeighbors(env, rm, 0, env.interaction_radius());
  EXPECT_EQ(n.size(), 63u);
}

TEST(UniformGridTest, MeanNeighborCountOnLattice) {
  // 5x5x5 lattice with spacing 10 and diameter 10: interior agents have
  // exactly 6 face neighbors at distance 10 == radius.
  ResourceManager rm;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      for (int z = 0; z < 5; ++z) {
        NewAgentSpec s;
        s.position = {x * 10.0, y * 10.0, z * 10.0};
        s.diameter = 10.0;
        rm.AddAgent(std::move(s));
      }
    }
  }
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // Center agent: 6 face neighbors within radius 10 (diagonals are at 14.1).
  AgentIndex center = 2 * 25 + 2 * 5 + 2;
  EXPECT_EQ(
      testutil::CollectNeighbors(env, rm, center, env.interaction_radius())
          .size(),
      6u);
  double mean = env.MeanNeighborCount(rm);
  EXPECT_GT(mean, 4.0);  // boundary agents pull the mean below 6
  EXPECT_LT(mean, 6.0);
}

TEST(UniformGridTest, UpdateAfterGrowthResizesBoxes) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 20, 0.0, 50.0, 8.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 8.0);
  rm.diameters()[3] = 16.0;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.box_length(), 16.0);
}

TEST(UniformGridTest, MeanNeighborCountStrideZeroIsClampedNotInfinite) {
  // Regression: stride 0 used to hang the sampling loop (`q += 0`). It now
  // clamps to 1, i.e. an exact (all-agents) mean.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 100, 0.0, 40.0, 10.0, /*seed=*/12);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.MeanNeighborCount(rm, 0), env.MeanNeighborCount(rm, 1));
}

TEST(UniformGridTest, OversizedQueryRadiusThrows) {
  // Regression: a radius beyond the box length used to be a debug-only
  // assert — release builds silently dropped neighbors outside the 27
  // surrounding boxes. It is a real error now.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 40.0, 10.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_THROW(env.ForEachNeighborWithinRadius(
                   0, rm, env.box_length() * 1.5, [](AgentIndex, double) {}),
               std::invalid_argument);
  // At or below the box length stays fine (the +epsilon tolerance).
  EXPECT_NO_THROW(env.ForEachNeighborWithinRadius(
      0, rm, env.box_length(), [](AgentIndex, double) {}));
}

TEST(UniformGridTest, UpdateRejectsFixedBoxSmallerThanInteractionRadius) {
  // The same contract enforced at build time: a fixed box edge below the
  // interaction radius would make every force query drop neighbors.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 40.0, /*diameter=*/12.0);
  Param param;
  UniformGridEnvironment env(/*fixed_box_length=*/5.0);
  EXPECT_THROW(env.Update(rm, param, ExecMode::kSerial),
               std::invalid_argument);
}

TEST(UniformGridTest, BoxChainsAreCanonicalAscendingAfterParallelBuild) {
  // The determinism tentpole's spatial half: however the build is chunked,
  // every box's member run comes out sorted by agent index.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 30.0, 10.0, /*seed=*/3);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kParallel);
  const auto& starts = env.csr().box_starts();
  const auto& agents = env.csr().box_agents();
  for (size_t s = 0; s + 1 < starts.size(); ++s) {
    for (int32_t t = starts[s] + 1; t < starts[s + 1]; ++t) {
      EXPECT_GT(agents[t], agents[t - 1]) << "slot " << s;
    }
  }
  testutil::ExpectGridMatchesOracle(env, rm);
}

TEST(UniformGridTest, TraversalOrderIsIdenticalSerialVsParallel) {
  // Stronger than equal neighbor *sets*: the *sequence* each query visits
  // must match, because force accumulation order is what determinism
  // rests on (docs/determinism.md).
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 35.0, 10.0, /*seed=*/21);
  Param param;
  UniformGridEnvironment serial, parallel;
  serial.Update(rm, param, ExecMode::kSerial);
  parallel.Update(rm, param, ExecMode::kParallel);
  double r = serial.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    std::vector<AgentIndex> order_serial, order_parallel;
    serial.ForEachNeighborWithinRadius(
        q, rm, r, [&](AgentIndex j, double) { order_serial.push_back(j); });
    parallel.ForEachNeighborWithinRadius(
        q, rm, r, [&](AgentIndex j, double) { order_parallel.push_back(j); });
    ASSERT_EQ(order_serial, order_parallel) << "query " << q;
  }
}

TEST(UniformGridTest, MeanAgentsPerBoxDiagnostic) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 1000, 0.0, 100.0, 10.0);
  Param param;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // 1000 agents over 10x10x10 boxes: about 1 agent per box.
  EXPECT_GT(env.MeanAgentsPerBox(), 0.9);
  EXPECT_LT(env.MeanAgentsPerBox(), 2.5);
}

}  // namespace
}  // namespace biosim
