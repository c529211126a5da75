#include "physics/displacement.h"

#include <gtest/gtest.h>

namespace biosim {
namespace {

TEST(DisplacementTest, BelowAdherenceNoMovement) {
  Double3 d = ComputeDisplacement<double>({0.1, 0.1, 0.1}, /*adherence=*/1.0,
                                          /*dt=*/0.01, /*max=*/3.0);
  EXPECT_EQ(d, (Double3{0, 0, 0}));
}

TEST(DisplacementTest, ExactlyAtAdherenceNoMovement) {
  Double3 d = ComputeDisplacement<double>({1.0, 0.0, 0.0}, 1.0, 0.01, 3.0);
  EXPECT_EQ(d, (Double3{0, 0, 0}));
}

TEST(DisplacementTest, AboveAdherenceIntegrates) {
  Double3 d = ComputeDisplacement<double>({10.0, 0.0, 0.0}, 1.0, 0.01, 3.0);
  EXPECT_NEAR(d.x, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(d.y, 0.0);
}

TEST(DisplacementTest, ClampsToMaxDisplacement) {
  Double3 d = ComputeDisplacement<double>({1000.0, 0.0, 0.0}, 1.0, 0.01, 3.0);
  EXPECT_NEAR(d.Norm(), 3.0, 1e-12);
  EXPECT_GT(d.x, 0.0);
}

TEST(DisplacementTest, ClampPreservesDirection) {
  Double3 f{300.0, 400.0, 0.0};
  Double3 d = ComputeDisplacement<double>(f, 1.0, 0.1, 3.0);
  EXPECT_NEAR(d.Norm(), 3.0, 1e-12);
  EXPECT_NEAR(d.x / d.y, f.x / f.y, 1e-12);
}

TEST(DisplacementTest, ZeroMaxDisplacementFreezesAgents) {
  // Benchmark B sets max displacement to zero so the density stays constant.
  Double3 d = ComputeDisplacement<double>({100.0, 50.0, 25.0}, 0.4, 0.01, 0.0);
  EXPECT_DOUBLE_EQ(d.Norm(), 0.0);
}

TEST(DisplacementTest, Fp32PathMatches) {
  Float3 d = ComputeDisplacement<float>({10.0f, 0.0f, 0.0f}, 1.0f, 0.01f, 3.0f);
  EXPECT_NEAR(d.x, 0.1f, 1e-6f);
}

TEST(BoundSpaceTest, ClampsIntoCube) {
  Param p;
  p.min_bound = 0.0;
  p.max_bound = 100.0;
  EXPECT_EQ(ApplyBoundSpace({-5.0, 50.0, 105.0}, p), (Double3{0.0, 50.0, 100.0}));
  EXPECT_EQ(ApplyBoundSpace({50.0, 50.0, 50.0}, p), (Double3{50.0, 50.0, 50.0}));
}

TEST(BoundSpaceTest, DisabledLeavesPositionAlone) {
  Param p;
  p.boundary_mode = BoundaryMode::kOpen;
  EXPECT_EQ(ApplyBoundSpace({-5.0, 500.0, 1e6}, p), (Double3{-5.0, 500.0, 1e6}));
}

}  // namespace
}  // namespace biosim
