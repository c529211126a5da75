#include "spatial/kd_tree.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace biosim {
namespace {

TEST(KdTreeTest, EmptyPopulation) {
  ResourceManager rm;
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  // Query on empty tree must not crash (no agents, nothing to call).
  int calls = 0;
  if (rm.size() > 0) {
    env.ForEachNeighborWithinRadius(0, rm, 10.0,
                                    [&](AgentIndex, double) { ++calls; });
  }
  EXPECT_EQ(calls, 0);
}

TEST(KdTreeTest, SingleAgentHasNoNeighbors) {
  ResourceManager rm;
  NewAgentSpec s;
  s.position = {5.0, 5.0, 5.0};
  rm.AddAgent(std::move(s));
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_TRUE(testutil::CollectNeighbors(env, rm, 0, 100.0).empty());
}

TEST(KdTreeTest, TwoAgentsWithinRadius) {
  ResourceManager rm;
  NewAgentSpec a, b;
  a.position = {0.0, 0.0, 0.0};
  b.position = {3.0, 0.0, 0.0};
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_EQ(testutil::CollectNeighbors(env, rm, 0, 5.0),
            (std::vector<AgentIndex>{1}));
  EXPECT_EQ(testutil::CollectNeighbors(env, rm, 1, 5.0),
            (std::vector<AgentIndex>{0}));
  EXPECT_TRUE(testutil::CollectNeighbors(env, rm, 0, 2.0).empty());
}

TEST(KdTreeTest, MatchesBruteForceOnRandomCloud) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 100.0, 10.0, /*seed=*/7);
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  double radius = env.interaction_radius();
  ASSERT_DOUBLE_EQ(radius, 10.0);
  for (AgentIndex q = 0; q < rm.size(); q += 13) {
    EXPECT_EQ(testutil::CollectNeighbors(env, rm, q, radius),
              testutil::BruteForceNeighbors(rm, q, radius))
        << "query " << q;
  }
}

TEST(KdTreeTest, RadiusIsInclusive) {
  ResourceManager rm;
  NewAgentSpec a, b;
  a.position = {0.0, 0.0, 0.0};
  b.position = {4.0, 0.0, 0.0};
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_EQ(testutil::CollectNeighbors(env, rm, 0, 4.0).size(), 1u);
}

TEST(KdTreeTest, DegenerateAllSamePosition) {
  // All agents at one point: the splitter cannot separate them; the build
  // must terminate and queries must return everyone.
  ResourceManager rm;
  for (int i = 0; i < 100; ++i) {
    NewAgentSpec s;
    s.position = {1.0, 1.0, 1.0};
    rm.AddAgent(std::move(s));
  }
  Param param;
  KdTreeEnvironment env(/*leaf_size=*/4);
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_EQ(testutil::CollectNeighbors(env, rm, 0, 0.5).size(), 99u);
}

TEST(KdTreeTest, CollinearPoints) {
  ResourceManager rm;
  for (int i = 0; i < 64; ++i) {
    NewAgentSpec s;
    s.position = {static_cast<double>(i), 0.0, 0.0};
    rm.AddAgent(std::move(s));
  }
  Param param;
  KdTreeEnvironment env(4);
  env.Update(rm, param, ExecMode::kSerial);
  auto n = testutil::CollectNeighbors(env, rm, 32, 2.5);
  EXPECT_EQ(n, (std::vector<AgentIndex>{30, 31, 33, 34}));
}

TEST(KdTreeTest, RebuildReflectsMovedAgents) {
  ResourceManager rm;
  NewAgentSpec a, b;
  a.position = {0.0, 0.0, 0.0};
  b.position = {50.0, 0.0, 0.0};
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_TRUE(testutil::CollectNeighbors(env, rm, 0, 10.0).empty());
  rm.positions()[1] = {5.0, 0.0, 0.0};
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_EQ(testutil::CollectNeighbors(env, rm, 0, 10.0).size(), 1u);
}

TEST(KdTreeTest, DepthIsLogarithmic) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 4096, 0.0, 100.0, 1.0);
  Param param;
  KdTreeEnvironment env(16);
  env.Update(rm, param, ExecMode::kSerial);
  // 4096/16 = 256 leaves -> ideal depth 9; allow slack for median noise.
  EXPECT_LE(env.Depth(), 14u);
  EXPECT_GE(env.Depth(), 8u);
}

TEST(KdTreeTest, InteractionRadiusTracksLargestDiameter) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 10, 0.0, 100.0, 8.0);
  NewAgentSpec big;
  big.position = {50.0, 50.0, 50.0};
  big.diameter = 22.0;
  rm.AddAgent(std::move(big));
  Param param;
  KdTreeEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_DOUBLE_EQ(env.interaction_radius(), 22.0);
}

}  // namespace
}  // namespace biosim
