// Differential battery for the fused force kernel
// (physics/simd_force_kernel.h) against its oracle, the generic callback
// path over the same uniform grid (reached by wrapping the grid in a
// ForwardingEnvironment, which hands MechanicalForcesOp no force windows).
// Seeded populations exercise every branch of the sweep — clustered (dense
// boxes), uniform (sparse), torus wrap-around on each axis, candidate
// counts around the vector width (the scalar tail), coincident centers,
// nonzero and negative-zero tractor forces, the adherence gate and the
// displacement clamp, both force laws. The contracts under test
// (docs/determinism.md):
//
//   * the kernel's displacements are bitwise the callback path's — at
//     BIOSIM_SIMD=scalar (W = 1, the reference) and at the native width,
//     serial and parallel; bits, not values, so signed zeros count;
//   * every path reports the identical force-evaluation count;
//   * unknown BIOSIM_SIMD values throw instead of silently falling back.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/forwarding_environment.h"
#include "spatial/kd_tree.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

struct PathResult {
  std::vector<Double3> displacements;
  size_t force_evals = 0;
  bool used_fast_path = false;
};

/// kGeneric: the callback path over a wrapped grid. kScalarWidth / kNative:
/// the fused kernel at BIOSIM_SIMD=scalar / native.
enum class Path { kGeneric, kScalarWidth, kNative };

PathResult RunPath(const ResourceManager& rm, const Param& param, Path path,
                   ExecMode mode = ExecMode::kSerial) {
  setenv("BIOSIM_SIMD", path == Path::kScalarWidth ? "scalar" : "native", 1);
  std::unique_ptr<Environment> env = std::make_unique<UniformGridEnvironment>();
  if (path == Path::kGeneric) {
    env = std::make_unique<ForwardingEnvironment>(std::move(env));
  }
  env->Update(rm, param, mode);
  MechanicalForcesOp op;
  op.ComputeDisplacements(rm, *env, param, mode);
  return {op.displacements(), op.last_force_evaluations(),
          op.last_used_fast_path()};
}

/// Bit-pattern equality: EXPECT_EQ on doubles would accept -0.0 == +0.0.
void ExpectSameBits(const std::vector<Double3>& a,
                    const std::vector<Double3>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(Double3)), 0)
        << what << ": agent " << i << " (" << a[i].x << ", " << a[i].y
        << ", " << a[i].z << ") vs (" << b[i].x << ", " << b[i].y << ", "
        << b[i].z << ")";
  }
}

void AddAgent(ResourceManager* rm, const Double3& pos, double diameter,
              double adherence = 0.0, const Double3& tractor = {}) {
  NewAgentSpec spec;
  spec.position = pos;
  spec.diameter = diameter;
  spec.adherence = adherence;
  spec.tractor_force = tractor;
  rm->AddAgent(std::move(spec));
}

/// Dense ball (bench-style): box occupancy from packed core to empty
/// corners, mixed diameters.
void FillClusteredBall(ResourceManager* rm, size_t n, uint64_t seed) {
  const double ball_radius = 8.0 * std::cbrt(static_cast<double>(n) / 16.0);
  const Double3 center{ball_radius + 10, ball_radius + 10, ball_radius + 10};
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double r = ball_radius * std::cbrt(rng.Uniform());
    AddAgent(rm, center + rng.UnitVector() * r, rng.Uniform(4.0, 8.0));
  }
}

void FillUniformCube(ResourceManager* rm, size_t n, double edge,
                     uint64_t seed) {
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AddAgent(rm, rng.UniformInCube(0.0, edge), 8.0);
  }
}

class SimdForceDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // RunPath sets the width override per path; restore the caller's.
    const char* prev = std::getenv("BIOSIM_SIMD");
    had_env_ = prev != nullptr;
    if (had_env_) {
      env_value_ = prev;
    }
  }
  void TearDown() override {
    if (had_env_) {
      setenv("BIOSIM_SIMD", env_value_.c_str(), 1);
    } else {
      unsetenv("BIOSIM_SIMD");
    }
  }

  /// The core differential: the callback oracle, the W = 1 reference and
  /// the native width over one population, serial and parallel. Bitwise
  /// displacements and equal evaluation counts everywhere.
  static void CheckAllPaths(const ResourceManager& rm, const Param& param) {
    const PathResult generic = RunPath(rm, param, Path::kGeneric);
    EXPECT_FALSE(generic.used_fast_path);
    for (Path path : {Path::kScalarWidth, Path::kNative}) {
      for (ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
        const PathResult fused = RunPath(rm, param, path, mode);
        const std::string what =
            std::string(path == Path::kScalarWidth ? "W=1" : "native") +
            (mode == ExecMode::kSerial ? " serial" : " parallel");
        EXPECT_TRUE(fused.used_fast_path) << what;
        EXPECT_EQ(generic.force_evals, fused.force_evals) << what;
        ExpectSameBits(generic.displacements, fused.displacements,
                       what.c_str());
      }
    }
  }

 private:
  bool had_env_ = false;
  std::string env_value_;
};

TEST_F(SimdForceDiffTest, ClusteredBallAllPathsAgree) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    ResourceManager rm;
    FillClusteredBall(&rm, 2000, seed);
    Param param;
    param.boundary_mode = BoundaryMode::kOpen;
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, UniformCubeAllPathsAgree) {
  ResourceManager rm;
  FillUniformCube(&rm, 1500, 120.0, 21);
  Param param;
  param.max_bound = 120.0;
  CheckAllPaths(rm, param);
}

TEST_F(SimdForceDiffTest, TorusWrapAllPathsAgree) {
  // Agents straddling every face, so minimum-image separations cross
  // the boundary in all three components.
  ResourceManager rm;
  Random rng(31);
  const double edge = 64.0;
  for (size_t i = 0; i < 800; ++i) {
    Double3 p = rng.UniformInCube(0.0, edge);
    // Pull a third of them onto the faces.
    if (i % 3 == 0) {
      const double face = rng.Uniform() < 0.5 ? 0.5 : edge - 0.5;
      if (i % 9 < 3) {
        p.x = face;
      } else if (i % 9 < 6) {
        p.y = face;
      } else {
        p.z = face;
      }
    }
    AddAgent(&rm, p, 8.0);
  }
  Param param;
  param.max_bound = edge;
  param.boundary_mode = BoundaryMode::kTorus;
  CheckAllPaths(rm, param);
}

TEST_F(SimdForceDiffTest, TorusHitsWrapOnEachAxis) {
  // Per axis, three overlapping agents whose contacts all cross that
  // axis's faces: the hits exist only after the minimum-image wrap, and the
  // law sees the rebuilt separation pi - (pi - miv). For the agent at
  // 58.8, pi - miv = 64.1 lands in the next binade, so the rebuilt
  // separation differs from miv in the last bits.
  const double edge = 64.0;
  for (size_t axis = 0; axis < 3; ++axis) {
    ResourceManager rm;
    Double3 a{30.0 + 0.1 * static_cast<double>(axis), 30.3, 29.7};
    Double3 b = a;
    Double3 c = a;
    a[axis] = 58.817066437304234;
    b[axis] = 0.12524306354425363;
    c[axis] = edge - 0.5772156649015329;
    c[(axis + 1) % 3] += 1.0 / 3.0;
    AddAgent(&rm, a, 8.0);
    AddAgent(&rm, b, 8.0);
    AddAgent(&rm, c, 6.0);
    Param param;
    param.max_bound = edge;
    param.boundary_mode = BoundaryMode::kTorus;
    const PathResult r = RunPath(rm, param, Path::kNative);
    EXPECT_EQ(r.force_evals, 6u) << "axis " << axis;
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, CandidateCountsAroundTheVectorWidth) {
  // An isolated cluster of k agents inside one box: every resident's
  // candidate stream has exactly k entries, so k = 1, W-1, W, W+1 and
  // 2W+1 run the vector loop zero, one and two times with and without a
  // scalar tail. The empty world is the zero-candidate case.
  constexpr size_t kW = static_cast<size_t>(simd::kNativeLanes<double>);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  {
    ResourceManager rm;
    const PathResult r = RunPath(rm, param, Path::kNative);
    EXPECT_EQ(r.force_evals, 0u);
    EXPECT_TRUE(r.displacements.empty());
  }
  for (size_t k : {size_t{1}, kW - 1, kW, kW + 1, 2 * kW + 1}) {
    if (k == 0) {
      continue;
    }
    ResourceManager rm;
    Random rng(100 + k);
    for (size_t i = 0; i < k; ++i) {
      AddAgent(&rm, Double3{50, 50, 50} + rng.UnitVector() * rng.Uniform(),
               8.0);
    }
    // A far agent sizes nothing but keeps the grid from being one box.
    AddAgent(&rm, {200, 200, 200}, 8.0);
    const PathResult r = RunPath(rm, param, Path::kNative);
    EXPECT_EQ(r.force_evals, k * (k - 1)) << "k=" << k;
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, TractorForcesAreTheAccumulatorStart) {
  // Nonzero tractor forces seed the pair sum. Negative-zero components
  // pin the order: the law's zero answer for a non-overlapping hit adds
  // +0.0, turning -0.0 into +0.0, and the kernel must do the same. A
  // small max displacement drives the epilogue's clamp branch, random
  // adherences its gate.
  ResourceManager rm;
  Random rng(71);
  for (size_t i = 0; i < 600; ++i) {
    const Double3 tractor =
        i % 4 == 0 ? Double3{-0.0, 0.0, -0.0}
                   : Double3{rng.Uniform(-50, 50), rng.Uniform(-50, 50),
                             rng.Uniform(-50, 50)};
    AddAgent(&rm, rng.UniformInCube(0.0, 70.0), rng.Uniform(5.0, 9.0),
             rng.Uniform(0.0, 2.0), tractor);
  }
  Param param;
  param.max_bound = 70.0;
  param.simulation_max_displacement = 0.05;
  CheckAllPaths(rm, param);
  param.boundary_mode = BoundaryMode::kTorus;
  CheckAllPaths(rm, param);
}

TEST_F(SimdForceDiffTest, DegeneratePopulations) {
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  {
    // Single agent: its self-slot must not count as an evaluation.
    ResourceManager rm;
    AddAgent(&rm, {50, 50, 50}, 8.0);
    const PathResult r = RunPath(rm, param, Path::kNative);
    EXPECT_EQ(r.force_evals, 0u);
    ASSERT_EQ(r.displacements.size(), 1u);
    EXPECT_EQ(r.displacements[0], Double3{});
    CheckAllPaths(rm, param);
  }
  {
    // Exactly coincident centers: direction undefined, force defined as
    // zero (physics/interaction_force.h) — but the pair still counts as
    // two evaluations, one per agent, in every mode. The negative-zero
    // tractor shows the zero is added, not skipped.
    ResourceManager rm;
    AddAgent(&rm, {50, 50, 50}, 8.0, 0.0, {-0.0, -0.0, -0.0});
    AddAgent(&rm, {50, 50, 50}, 8.0, 0.0, {1.0, -0.0, 0.0});
    AddAgent(&rm, {50, 50, 50}, 8.0, 0.0, {-0.0, 2.0, -0.0});
    const PathResult r = RunPath(rm, param, Path::kNative);
    EXPECT_EQ(r.force_evals, 6u);
    CheckAllPaths(rm, param);
  }
  {
    // Touching-but-not-overlapping and far-apart pairs: hit counting at
    // the radius boundary must agree across paths.
    ResourceManager rm;
    AddAgent(&rm, {20, 20, 20}, 8.0);
    AddAgent(&rm, {28, 20, 20}, 8.0);   // distance == interaction radius
    AddAgent(&rm, {100, 100, 100}, 8.0);  // isolated
    CheckAllPaths(rm, param);
  }
}

TEST_F(SimdForceDiffTest, ResultsAreBitwiseIndependentOfVectorWidth) {
  // The W-independence claim (physics/simd_force_kernel.h), on a default-
  // adherence population so the displacement gate is live too.
  ResourceManager rm;
  Random rng(51);
  for (size_t i = 0; i < 1200; ++i) {
    AddAgent(&rm, rng.UniformInCube(0.0, 60.0), rng.Uniform(4.0, 8.0),
             NewAgentSpec{}.adherence);
  }
  Param param;
  param.max_bound = 60.0;
  const PathResult w1 = RunPath(rm, param, Path::kScalarWidth);
  const PathResult native = RunPath(rm, param, Path::kNative);
  ExpectSameBits(w1.displacements, native.displacements, "W=1 vs native");
  EXPECT_EQ(w1.force_evals, native.force_evals);
}

TEST_F(SimdForceDiffTest, UnknownWidthOverrideThrows) {
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  setenv("BIOSIM_SIMD", "avx512", 1);
  MechanicalForcesOp op;
  EXPECT_THROW(op.ComputeDisplacements(rm, env, param, ExecMode::kSerial),
               std::invalid_argument);
}

TEST_F(SimdForceDiffTest, VectorModesRequireTheUniformGrid) {
  // The kernel consumes the grid's CSR layout; any other environment takes
  // the generic path whatever BIOSIM_SIMD says.
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0);
  Param param;
  KdTreeEnvironment kd;
  kd.Update(rm, param, ExecMode::kSerial);
  MechanicalForcesOp op;
  for (const char* width : {"scalar", "native"}) {
    setenv("BIOSIM_SIMD", width, 1);
    op.ComputeDisplacements(rm, kd, param, ExecMode::kSerial);
    EXPECT_FALSE(op.last_used_fast_path()) << width;
  }
}

TEST_F(SimdForceDiffTest, ReusedOpOnShrinkingPopulationMatchesFreshOp) {
  // Stale-scratch regression: the kernel's gather buffers are
  // capacity-managed and deliberately uninitialized
  // (core/aligned_buffer.h), so a second pass over a *smaller*
  // population re-reads scratch that still holds the first population's
  // bytes beyond the new prefix. Any read past the freshly gathered
  // region shows up as a difference against a never-used op.
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  ResourceManager big;
  FillClusteredBall(&big, 3000, 61);
  ResourceManager small;
  FillClusteredBall(&small, 200, 62);

  for (const char* width : {"scalar", "native"}) {
    setenv("BIOSIM_SIMD", width, 1);
    UniformGridEnvironment env;
    MechanicalForcesOp reused;
    env.Update(big, param, ExecMode::kSerial);
    reused.ComputeDisplacements(big, env, param, ExecMode::kSerial);
    env.Update(small, param, ExecMode::kSerial);
    reused.ComputeDisplacements(small, env, param, ExecMode::kSerial);

    MechanicalForcesOp fresh;
    fresh.ComputeDisplacements(small, env, param, ExecMode::kSerial);

    ExpectSameBits(reused.displacements(), fresh.displacements(), width);
    EXPECT_EQ(reused.last_force_evaluations(),
              fresh.last_force_evaluations());
  }
}

}  // namespace
}  // namespace biosim
