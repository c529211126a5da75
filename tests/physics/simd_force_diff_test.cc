// Differential battery for the vectorized force kernel
// (physics/simd_force_kernel.h): the SIMD path versus the scalar fused
// reference, across seeded populations chosen to exercise
// every branch of the sweep — clustered (dense boxes), uniform (sparse),
// torus wrap-around, coincident centers, single agents, empty worlds,
// both force laws. The contracts under test (docs/determinism.md):
//
//   * cpu_simd displacements stay within 1e-12 of the scalar fused path
//     per component (the only FP difference is the FMA-contracted d²);
//   * every path — generic, fused, SIMD — reports the *identical*
//     force-evaluation count (the hit decision is exact in every mode);
//   * results are bitwise independent of the dispatched vector width
//     (BIOSIM_SIMD=scalar == native, lane for lane);
//   * the vector mode refuses non-uniform-grid environments and unknown
//     BIOSIM_SIMD values instead of silently falling back.
//
// Populations set adherence = 0 so the displacement gate (|F| must
// exceed adherence) cannot turn a sub-tolerance force difference into a
// whole displacement difference; the gate itself is covered by the
// parity rows, which run the full default-adherence pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "physics/force_law.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/kd_tree.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

struct PathResult {
  std::vector<Double3> displacements;
  size_t force_evals = 0;
  bool used_fast_path = false;
};

enum class Path { kGeneric, kFused, kSimd };

PathResult RunPath(const ResourceManager& rm, Param param, Path path,
                   ExecMode mode = ExecMode::kSerial,
                   ForceLaw law = ForceLaw::kCortex3D) {
  param.cpu_fast_path = path != Path::kGeneric;
  param.cpu_simd = path == Path::kSimd;
  UniformGridEnvironment env;
  env.Update(rm, param, mode);
  MechanicalForcesOp op(law);
  op.ComputeDisplacements(rm, env, param, mode);
  return {op.displacements(), op.last_force_evaluations(),
          op.last_used_fast_path()};
}

double MaxAbsComponentDiff(const std::vector<Double3>& a,
                           const std::vector<Double3>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i].x - b[i].x));
    max_diff = std::max(max_diff, std::fabs(a[i].y - b[i].y));
    max_diff = std::max(max_diff, std::fabs(a[i].z - b[i].z));
  }
  return max_diff;
}

constexpr double kSimdTol = 1e-12;  // one pass, FMA-contraction noise only

void AddAgent(ResourceManager* rm, const Double3& pos, double diameter) {
  NewAgentSpec spec;
  spec.position = pos;
  spec.diameter = diameter;
  spec.adherence = 0.0;
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
    // The width override would silently change which kernel half these
    // tests exercise; pin it to the default and restore after.
    const char* prev = std::getenv("BIOSIM_SIMD");
    had_env_ = prev != nullptr;
    if (had_env_) {
      env_value_ = prev;
    }
    unsetenv("BIOSIM_SIMD");
  }
  void TearDown() override {
    if (had_env_) {
      setenv("BIOSIM_SIMD", env_value_.c_str(), 1);
    } else {
      unsetenv("BIOSIM_SIMD");
    }
  }

  /// The core differential: all three paths over one population; equal
  /// eval counts everywhere, displacement bound for the vector mode.
  void CheckAllPaths(const ResourceManager& rm, const Param& param,
                     ForceLaw law = ForceLaw::kCortex3D) {
    const PathResult generic =
        RunPath(rm, param, Path::kGeneric, ExecMode::kSerial, law);
    const PathResult fused =
        RunPath(rm, param, Path::kFused, ExecMode::kSerial, law);
    const PathResult simd =
        RunPath(rm, param, Path::kSimd, ExecMode::kSerial, law);

    EXPECT_FALSE(generic.used_fast_path);
    EXPECT_TRUE(fused.used_fast_path);
    EXPECT_TRUE(simd.used_fast_path);

    EXPECT_EQ(generic.force_evals, fused.force_evals);
    EXPECT_EQ(fused.force_evals, simd.force_evals);

    // fused == generic is the existing bitwise contract; the vector
    // mode owes its tolerance against that shared reference.
    EXPECT_EQ(MaxAbsComponentDiff(generic.displacements,
                                  fused.displacements),
              0.0);
    EXPECT_LE(MaxAbsComponentDiff(fused.displacements, simd.displacements),
              kSimdTol);

    // Parallel execution of the vector mode is bitwise-identical to its
    // serial run (per-box accumulation; chunking changes nothing).
    const PathResult simd_mt =
        RunPath(rm, param, Path::kSimd, ExecMode::kParallel, law);
    EXPECT_EQ(simd.displacements, simd_mt.displacements);
    EXPECT_EQ(simd.force_evals, simd_mt.force_evals);
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

TEST_F(SimdForceDiffTest, HertzLawAllPathsAgree) {
  ResourceManager rm;
  FillClusteredBall(&rm, 1000, 41);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  CheckAllPaths(rm, param, ForceLaw::kHertz);
}

TEST_F(SimdForceDiffTest, DegeneratePopulations) {
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  {
    // Empty world: no evaluations, no crash, empty buffer.
    ResourceManager rm;
    const PathResult simd = RunPath(rm, param, Path::kSimd);
    EXPECT_EQ(simd.force_evals, 0u);
    EXPECT_TRUE(simd.displacements.empty());
  }
  {
    // Single agent: its self-slot must not count as an evaluation.
    ResourceManager rm;
    AddAgent(&rm, {50, 50, 50}, 8.0);
    for (Path p : {Path::kFused, Path::kSimd}) {
      const PathResult r = RunPath(rm, param, p);
      EXPECT_EQ(r.force_evals, 0u);
      ASSERT_EQ(r.displacements.size(), 1u);
      EXPECT_EQ(r.displacements[0].x, 0.0);
      EXPECT_EQ(r.displacements[0].y, 0.0);
      EXPECT_EQ(r.displacements[0].z, 0.0);
    }
  }
  {
    // Exactly coincident centers: direction undefined, force defined as
    // zero (physics/interaction_force.h) — but the pair still counts as
    // two evaluations, one per agent, in every mode.
    ResourceManager rm;
    AddAgent(&rm, {50, 50, 50}, 8.0);
    AddAgent(&rm, {50, 50, 50}, 8.0);
    for (Path p : {Path::kFused, Path::kSimd}) {
      const PathResult r = RunPath(rm, param, p);
      EXPECT_EQ(r.force_evals, 2u);
      EXPECT_EQ(MaxAbsComponentDiff(
                    r.displacements,
                    std::vector<Double3>{Double3{}, Double3{}}),
                0.0);
    }
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
  // The W-independence claim (physics/simd_force_kernel.h): the forced
  // W=1 kernel and the native-width kernel must produce identical bits,
  // not merely close ones — d² per candidate is a single correctly
  // rounded FMA chain regardless of grouping, and accumulation runs in
  // candidate order.
  ResourceManager rm;
  FillClusteredBall(&rm, 1200, 51);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;

  setenv("BIOSIM_SIMD", "scalar", 1);
  const PathResult w1 = RunPath(rm, param, Path::kSimd);
  setenv("BIOSIM_SIMD", "native", 1);
  const PathResult native = RunPath(rm, param, Path::kSimd);

  EXPECT_EQ(w1.displacements, native.displacements);
  EXPECT_EQ(w1.force_evals, native.force_evals);
}

TEST_F(SimdForceDiffTest, UnknownWidthOverrideThrows) {
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0);
  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  setenv("BIOSIM_SIMD", "avx512", 1);
  EXPECT_THROW(RunPath(rm, param, Path::kSimd), std::invalid_argument);
  // The scalar paths never consult the override; a bad value must not
  // break them.
  EXPECT_NO_THROW(RunPath(rm, param, Path::kFused));
}

TEST_F(SimdForceDiffTest, VectorModesRequireTheUniformGrid) {
  ResourceManager rm;
  AddAgent(&rm, {50, 50, 50}, 8.0);
  Param param;
  param.cpu_fast_path = true;
  param.cpu_simd = true;
  KdTreeEnvironment kd;
  kd.Update(rm, param, ExecMode::kSerial);
  MechanicalForcesOp op;
  EXPECT_THROW(op.ComputeDisplacements(rm, kd, param, ExecMode::kSerial),
               std::invalid_argument);
  // cpu_fast_path alone falls back to the generic path silently — that
  // contract predates the vector mode and must not change.
  param.cpu_simd = false;
  EXPECT_NO_THROW(op.ComputeDisplacements(rm, kd, param, ExecMode::kSerial));
  EXPECT_FALSE(op.last_used_fast_path());
}

TEST_F(SimdForceDiffTest, ReusedOpOnShrinkingPopulationMatchesFreshOp) {
  // Stale-scratch regression: the kernels' gather buffers are
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

  for (Path path : {Path::kFused, Path::kSimd}) {
    UniformGridEnvironment env;
    Param p = param;
    p.cpu_fast_path = true;
    p.cpu_simd = path == Path::kSimd;

    MechanicalForcesOp reused;
    env.Update(big, p, ExecMode::kSerial);
    reused.ComputeDisplacements(big, env, p, ExecMode::kSerial);
    env.Update(small, p, ExecMode::kSerial);
    reused.ComputeDisplacements(small, env, p, ExecMode::kSerial);

    MechanicalForcesOp fresh;
    fresh.ComputeDisplacements(small, env, p, ExecMode::kSerial);

    EXPECT_EQ(reused.displacements(), fresh.displacements())
        << "path " << static_cast<int>(path);
    EXPECT_EQ(reused.last_force_evaluations(),
              fresh.last_force_evaluations());
  }
}

}  // namespace
}  // namespace biosim
