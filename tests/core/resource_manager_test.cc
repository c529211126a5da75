#include "core/resource_manager.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/behaviors/grow_divide.h"

namespace biosim {
namespace {

NewAgentSpec MakeSpec(double x, double diameter = 10.0) {
  NewAgentSpec s;
  s.position = {x, 0.0, 0.0};
  s.diameter = diameter;
  return s;
}

TEST(ResourceManagerTest, AddAgentPopulatesAllArrays) {
  ResourceManager rm;
  NewAgentSpec s = MakeSpec(1.0, 8.0);
  s.adherence = 0.3;
  s.density = 1.1;
  s.tractor_force = {0.1, 0.2, 0.3};
  AgentIndex i = rm.AddAgent(std::move(s));
  ASSERT_EQ(rm.size(), 1u);
  EXPECT_EQ(rm.positions()[i], (Double3{1.0, 0.0, 0.0}));
  EXPECT_DOUBLE_EQ(rm.diameters()[i], 8.0);
  EXPECT_NEAR(rm.volumes()[i], math::SphereVolume(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(rm.adherences()[i], 0.3);
  EXPECT_DOUBLE_EQ(rm.densities()[i], 1.1);
  EXPECT_EQ(rm.tractor_forces()[i], (Double3{0.1, 0.2, 0.3}));
  EXPECT_EQ(rm.uids()[i], 0u);
}

TEST(ResourceManagerTest, UidsAreUniqueAndMonotonic) {
  ResourceManager rm;
  for (int i = 0; i < 5; ++i) {
    rm.AddAgent(MakeSpec(i));
  }
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rm.uids()[i], i);
  }
}

TEST(ResourceManagerTest, DeferredAgentsAppearOnlyAfterCommit) {
  ResourceManager rm;
  rm.AddAgent(MakeSpec(0.0));
  std::vector<NewAgentSpec> births;
  births.push_back(MakeSpec(5.0));
  EXPECT_EQ(rm.size(), 1u);
  EXPECT_EQ(rm.CommitStructuralChanges({}, std::move(births)), 1u);
  EXPECT_EQ(rm.size(), 2u);
  EXPECT_DOUBLE_EQ(rm.positions()[1].x, 5.0);
}

TEST(ResourceManagerTest, BirthsAppendInTheGivenOrder) {
  // The caller passes births in mother-row order (Simulation reads its
  // chunk buffers in chunk order); the commit keeps that order and assigns
  // uids along it.
  ResourceManager rm;
  for (int i = 0; i < 3; ++i) {
    rm.AddAgent(MakeSpec(i));
  }
  std::vector<NewAgentSpec> births;
  births.push_back(MakeSpec(102.0));
  births.push_back(MakeSpec(100.0));
  births.push_back(MakeSpec(101.0));
  rm.CommitStructuralChanges({}, std::move(births));
  ASSERT_EQ(rm.size(), 6u);
  EXPECT_DOUBLE_EQ(rm.positions()[3].x, 102.0);
  EXPECT_DOUBLE_EQ(rm.positions()[4].x, 100.0);
  EXPECT_DOUBLE_EQ(rm.positions()[5].x, 101.0);
  EXPECT_EQ(rm.uids()[3], 3u);
  EXPECT_EQ(rm.uids()[5], 5u);
}

TEST(ResourceManagerTest, DeferredRemovalSwapsWithLast) {
  ResourceManager rm;
  for (int i = 0; i < 4; ++i) {
    rm.AddAgent(MakeSpec(i));
  }
  rm.CommitStructuralChanges({1}, {});
  ASSERT_EQ(rm.size(), 3u);
  // Row 1 now holds what was row 3.
  EXPECT_DOUBLE_EQ(rm.positions()[1].x, 3.0);
  EXPECT_EQ(rm.uids()[1], 3u);
}

TEST(ResourceManagerTest, DuplicateRemovalIsIdempotent) {
  ResourceManager rm;
  for (int i = 0; i < 3; ++i) {
    rm.AddAgent(MakeSpec(i));
  }
  EXPECT_EQ(rm.CommitStructuralChanges({2, 2}, {}), 1u);
  EXPECT_EQ(rm.size(), 2u);
}

TEST(ResourceManagerTest, RemoveMultipleHighestFirst) {
  ResourceManager rm;
  for (int i = 0; i < 5; ++i) {
    rm.AddAgent(MakeSpec(i));
  }
  rm.CommitStructuralChanges({0, 4}, {});
  ASSERT_EQ(rm.size(), 3u);
  // Surviving x values are {1, 2, 3} in some arrangement.
  double sum = 0.0;
  for (const auto& p : rm.positions()) {
    sum += p.x;
  }
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

TEST(ResourceManagerTest, RemovalsApplyBeforeBirths) {
  // A birth never lands in a removed row: the removals shrink the arrays
  // first, then the births append after the survivors.
  ResourceManager rm;
  for (int i = 0; i < 3; ++i) {
    rm.AddAgent(MakeSpec(i));
  }
  std::vector<NewAgentSpec> births;
  births.push_back(MakeSpec(10.0));
  EXPECT_EQ(rm.CommitStructuralChanges({2}, std::move(births)), 2u);
  ASSERT_EQ(rm.size(), 3u);
  EXPECT_DOUBLE_EQ(rm.positions()[2].x, 10.0);
  EXPECT_EQ(rm.uids()[2], 3u);
}

TEST(ResourceManagerTest, ApplyPermutationReordersAllArrays) {
  ResourceManager rm;
  for (int i = 0; i < 4; ++i) {
    NewAgentSpec s = MakeSpec(i, 5.0 + i);
    s.adherence = 0.1 * i;
    rm.AddAgent(std::move(s));
  }
  std::vector<AgentIndex> perm{3, 1, 0, 2};
  rm.ApplyPermutation(perm);
  EXPECT_DOUBLE_EQ(rm.positions()[0].x, 3.0);
  EXPECT_DOUBLE_EQ(rm.diameters()[0], 8.0);
  EXPECT_DOUBLE_EQ(rm.adherences()[0], 0.3);
  EXPECT_EQ(rm.uids()[0], 3u);
  EXPECT_DOUBLE_EQ(rm.positions()[2].x, 0.0);
  EXPECT_EQ(rm.uids()[2], 0u);
}

TEST(ResourceManagerTest, PermutationPreservesBehaviors) {
  ResourceManager rm;
  rm.AddAgent(MakeSpec(0.0));
  rm.AddAgent(MakeSpec(1.0));
  rm.AttachBehavior(1, std::make_unique<GrowDivide>(30.0, 100.0));
  rm.ApplyPermutation({1, 0});
  EXPECT_EQ(rm.behaviors_of(0).size(), 1u);
  EXPECT_EQ(rm.behaviors_of(1).size(), 0u);
}

TEST(ResourceManagerTest, LargestDiameter) {
  ResourceManager rm;
  EXPECT_DOUBLE_EQ(rm.LargestDiameter(), 0.0);
  rm.AddAgent(MakeSpec(0.0, 5.0));
  rm.AddAgent(MakeSpec(1.0, 12.0));
  rm.AddAgent(MakeSpec(2.0, 7.0));
  EXPECT_DOUBLE_EQ(rm.LargestDiameter(), 12.0);
}

TEST(ResourceManagerTest, BoundsCoverAllAgents) {
  ResourceManager rm;
  rm.AddAgent(MakeSpec(-3.0));
  NewAgentSpec s;
  s.position = {10.0, 5.0, -2.0};
  rm.AddAgent(std::move(s));
  AABBd b = rm.Bounds();
  EXPECT_DOUBLE_EQ(b.min.x, -3.0);
  EXPECT_DOUBLE_EQ(b.max.x, 10.0);
  EXPECT_DOUBLE_EQ(b.min.z, -2.0);
}

TEST(ResourceManagerTest, TotalVolumeSums) {
  ResourceManager rm;
  rm.AddAgent(MakeSpec(0.0, 10.0));
  rm.AddAgent(MakeSpec(1.0, 10.0));
  EXPECT_NEAR(rm.TotalVolume(), 2.0 * math::SphereVolume(10.0), 1e-9);
}

}  // namespace
}  // namespace biosim
