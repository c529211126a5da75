#include "diffusion/diffusion_grid.h"

#include <gtest/gtest.h>

#include <cmath>

namespace biosim {
namespace {

TEST(DiffusionGridTest, ConstructionValidation) {
  EXPECT_THROW(DiffusionGrid("x", 0, 100, 1, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(DiffusionGrid("x", 100, 0, 8, 1.0, 0.0), std::invalid_argument);
  DiffusionGrid g("oxygen", 0, 100, 8, 1.0, 0.0);
  EXPECT_EQ(g.substance_name(), "oxygen");
  EXPECT_EQ(g.resolution(), 8u);
  EXPECT_DOUBLE_EQ(g.voxel_length(), 12.5);
  EXPECT_EQ(g.num_voxels(), 512u);
}

TEST(DiffusionGridTest, ClosedBoundaryConservesMass) {
  DiffusionGrid g("s", 0, 100, 10, 50.0, /*decay=*/0.0);
  g.IncreaseConcentrationBy({50, 50, 50}, 1000.0);
  double before = g.TotalAmount();
  for (int i = 0; i < 50; ++i) {
    g.Step(0.05);
  }
  EXPECT_NEAR(g.TotalAmount(), before, 1e-6 * before);
}

TEST(DiffusionGridTest, DiffusionSpreadsAndFlattens) {
  DiffusionGrid g("s", 0, 100, 10, 50.0, 0.0);
  g.IncreaseConcentrationBy({55, 55, 55}, 1000.0);
  double peak0 = g.MaxConcentration();
  for (int i = 0; i < 100; ++i) {
    g.Step(0.05);
  }
  EXPECT_LT(g.MaxConcentration(), 0.2 * peak0);
  // In the long-time closed-box limit the field is uniform.
  for (int i = 0; i < 2000; ++i) {
    g.Step(0.05);
  }
  double uniform = g.TotalAmount() / static_cast<double>(g.num_voxels());
  EXPECT_NEAR(g.MaxConcentration(), uniform, 0.02 * uniform);
}

TEST(DiffusionGridTest, DecayIsExponential) {
  double mu = 2.0;
  DiffusionGrid g("s", 0, 100, 6, /*D=*/0.0, mu);
  g.Initialize([](const Double3&) { return 100.0; });
  double t = 0.5;
  // Step in small increments so the forward-Euler decay error stays small.
  for (int i = 0; i < 500; ++i) {
    g.Step(t / 500);
  }
  EXPECT_NEAR(g.MaxConcentration(), 100.0 * std::exp(-mu * t),
              0.01 * 100.0 * std::exp(-mu * t));
}

TEST(DiffusionGridTest, StepSubdividesUnstableTimesteps) {
  // dt far above the stability limit must still produce a bounded,
  // non-negative field (the solver sub-steps internally).
  DiffusionGrid g("s", 0, 10, 8, 100.0, 0.0);
  g.IncreaseConcentrationBy({5, 5, 5}, 100.0);
  EXPECT_LT(g.MaxStableTimestep(), 0.01);
  g.Step(1.0);
  EXPECT_GE(g.MaxConcentration(), 0.0);
  EXPECT_LT(g.MaxConcentration(), 100.1);
  EXPECT_FALSE(std::isnan(g.TotalAmount()));
}

TEST(DiffusionGridTest, GradientPointsUphill) {
  DiffusionGrid g("s", 0, 100, 10, 1.0, 0.0);
  // Linear ramp in x: c = x.
  g.Initialize([](const Double3& p) { return p.x; });
  Double3 grad = g.GetGradient({50, 50, 50});
  EXPECT_NEAR(grad.x, 1.0, 1e-9);
  EXPECT_NEAR(grad.y, 0.0, 1e-9);
  EXPECT_NEAR(grad.z, 0.0, 1e-9);
}

TEST(DiffusionGridTest, GradientAtFacesUsesOneSidedDifference) {
  DiffusionGrid g("s", 0, 100, 10, 1.0, 0.0);
  g.Initialize([](const Double3& p) { return 2.0 * p.x; });
  Double3 at_min = g.GetGradient({1, 50, 50});
  Double3 at_max = g.GetGradient({99, 50, 50});
  EXPECT_NEAR(at_min.x, 2.0, 1e-9);
  EXPECT_NEAR(at_max.x, 2.0, 1e-9);
}

TEST(DiffusionGridTest, QueriesOutsideDomainAreSafe) {
  DiffusionGrid g("s", 0, 100, 8, 1.0, 0.0);
  g.Initialize([](const Double3&) { return 5.0; });
  EXPECT_DOUBLE_EQ(g.GetConcentration({-1, 50, 50}), 0.0);
  EXPECT_DOUBLE_EQ(g.GetConcentration({50, 101, 50}), 0.0);
  EXPECT_EQ(g.GetGradient({200, 200, 200}), (Double3{0, 0, 0}));
  g.IncreaseConcentrationBy({-5, 0, 0}, 100.0);  // silently dropped
  EXPECT_NEAR(g.TotalAmount(), 5.0 * 512, 1e-9);
}

TEST(DiffusionGridTest, DepositOnMaxFaceLandsInLastVoxel) {
  // Regression: the voxel lookup used `pos >= max` as out-of-domain, so a
  // deposit exactly on the max face — a legal agent position, and exactly
  // where a clamped torus image can land — was silently discarded. The face
  // belongs to the last voxel (the same clamp GetConcentration applies).
  DiffusionGrid g("s", 0, 80, 8, 1.0, 0.0);
  g.IncreaseConcentrationBy({80, 80, 80}, 4.0);
  EXPECT_DOUBLE_EQ(g.GetConcentration({79, 79, 79}), 4.0);
  EXPECT_EQ(g.dropped_deposits(), 0u);
  EXPECT_NEAR(g.TotalAmount(), 4.0, 1e-12);
  // Mixed-face corner: one coordinate interior, two on the face.
  g.IncreaseConcentrationBy({35, 80, 0}, 1.0);
  EXPECT_DOUBLE_EQ(g.GetConcentration({35, 79, 0}), 1.0);
}

TEST(DiffusionGridTest, OutOfDomainDepositsAreCountedNotSilent) {
  DiffusionGrid g("s", 0, 80, 8, 1.0, 0.0);
  EXPECT_EQ(g.dropped_deposits(), 0u);
  g.IncreaseConcentrationBy({-1, 40, 40}, 2.0);
  g.IncreaseConcentrationBy({40, 80.001, 40}, 2.0);
  EXPECT_EQ(g.dropped_deposits(), 2u);
  EXPECT_DOUBLE_EQ(g.TotalAmount(), 0.0);  // nothing landed
}

TEST(DiffusionGridTest, SecretionAccumulatesInVoxel) {
  DiffusionGrid g("s", 0, 80, 8, 1.0, 0.0);
  g.IncreaseConcentrationBy({35, 35, 35}, 2.0);
  g.IncreaseConcentrationBy({35, 35, 35}, 3.0);
  EXPECT_DOUBLE_EQ(g.GetConcentration({35, 35, 35}), 5.0);
}

TEST(DiffusionGridTest, SerialAndParallelStepsAgree) {
  DiffusionGrid a("s", 0, 100, 12, 30.0, 0.5);
  DiffusionGrid b("s", 0, 100, 12, 30.0, 0.5);
  auto init = [](const Double3& p) { return p.x * 0.1 + p.y * 0.05; };
  a.Initialize(init);
  b.Initialize(init);
  for (int i = 0; i < 20; ++i) {
    a.Step(0.02, ExecMode::kSerial);
    b.Step(0.02, ExecMode::kParallel);
  }
  for (size_t i = 0; i < a.num_voxels(); ++i) {
    ASSERT_EQ(a.raw()[i], b.raw()[i]);
  }
}

TEST(DiffusionGridTest, PointSourceApproachesGaussianProfile) {
  // Compare the solver against the analytic infinite-domain Green's
  // function at short times (boundaries far away).
  double d_coef = 20.0;
  DiffusionGrid g("s", 0, 200, 40, d_coef, 0.0);
  double q = 1000.0;
  g.IncreaseConcentrationBy({100, 100, 100}, q);
  // Run long enough that the Gaussian width (sigma = sqrt(2 D t) = 10)
  // spans two voxels; below that the lattice cannot resolve the profile.
  double t = 2.5;
  int steps = 250;
  for (int i = 0; i < steps; ++i) {
    g.Step(t / steps);
  }
  double h = g.voxel_length();
  double voxel_vol = h * h * h;
  // The deposited "concentration" q in one voxel is mass q*voxel_vol.
  auto analytic = [&](double r2) {
    return q * voxel_vol / std::pow(4.0 * math::kPi * d_coef * t, 1.5) *
           std::exp(-r2 / (4.0 * d_coef * t));
  };
  // Check the profile at radial sample points spanning 1-3 sigma. The
  // lattice Green's function has a slightly heavier tail than the continuum
  // Gaussian, so the tolerance widens with radius.
  for (double r : {10.0, 20.0, 30.0}) {
    double measured = g.GetConcentration({100 + r, 100, 100});
    double expected = analytic(r * r);
    EXPECT_NEAR(measured, expected, (0.1 + 0.01 * r) * expected + 1e-3)
        << "at r=" << r;
  }
}

}  // namespace
}  // namespace biosim
