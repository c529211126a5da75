// CSR traversal property tests (docs/perf.md): the compacted CSR must hold
// exactly the brute-force per-box member sets, and the grid's neighbor
// traversal must visit *exactly* the (neighbor, d²) sequence of a reference
// walk over those member sets — Fig. 5's box chains, built here by brute
// force — in the canonical block order: same order, same indices, equal
// distances, on random, clustered, torus-wrapped, and degenerate (1–2 boxes
// per axis) inputs. This is the contract the fused force kernel's bitwise
// equality rests on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../test_util.h"
#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "grid_oracle.h"
#include "physics/displacement.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

using Visit = std::pair<AgentIndex, double>;

/// Reference traversal: the 27-block in canonical (dz, dy, dx) order over
/// the oracle's ascending member lists, with the grid's distance formula.
std::vector<Visit> CollectChain(const UniformGridEnvironment& env,
                                const testutil::BoxMembers& chains,
                                const ResourceManager& rm, AgentIndex q,
                                double radius) {
  const GridGeometry& g = env.geometry();
  const Double3 p = rm.positions()[q];
  std::vector<Visit> out;
  g.ForEachNeighborCoord(g.BoxCoordinatesOf(p), [&](const Int3& c) {
    const auto it = chains.find(g.FlatBoxIndex(c));
    if (it == chains.end()) {
      return;
    }
    for (int32_t j : it->second) {
      if (static_cast<AgentIndex>(j) == q) {
        continue;
      }
      const Double3 pj = rm.positions()[static_cast<size_t>(j)];
      const double d2 = g.torus ? MinImageVector(p, pj, g.edge).SquaredNorm()
                                : SquaredDistance(p, pj);
      if (d2 <= radius * radius) {
        out.emplace_back(static_cast<AgentIndex>(j), d2);
      }
    }
  });
  return out;
}

std::vector<Visit> CollectCsr(const UniformGridEnvironment& env,
                              const ResourceManager& rm, AgentIndex q,
                              double radius) {
  std::vector<Visit> out;
  env.ForEachNeighborWithinRadius(
      q, rm, radius, [&](AgentIndex j, double d2) { out.emplace_back(j, d2); });
  return out;
}

/// The property: for every agent, the two traversals produce the identical
/// visit sequence (order, indices, and d² values all equal).
void ExpectIdenticalSequences(const UniformGridEnvironment& env,
                              const ResourceManager& rm) {
  const testutil::BoxMembers chains =
      testutil::BruteForceBoxMembers(rm, env.geometry());
  const double radius = env.interaction_radius();
  for (AgentIndex q = 0; q < rm.size(); ++q) {
    std::vector<Visit> chain = CollectChain(env, chains, rm, q, radius);
    std::vector<Visit> csr = CollectCsr(env, rm, q, radius);
    ASSERT_EQ(chain.size(), csr.size()) << "agent " << q;
    for (size_t k = 0; k < chain.size(); ++k) {
      EXPECT_EQ(chain[k].first, csr[k].first) << "agent " << q << " visit " << k;
      EXPECT_EQ(chain[k].second, csr[k].second)
          << "agent " << q << " visit " << k;
    }
  }
}

void ExpectValidCsr(const UniformGridEnvironment& env,
                    const ResourceManager& rm) {
  testutil::ExpectGridMatchesOracle(env, rm);
}

Param ClampParam(double hi) {
  Param p;
  p.min_bound = 0.0;
  p.max_bound = hi;
  return p;
}

Param TorusParam(double edge) {
  Param p = ClampParam(edge);
  p.boundary_mode = BoundaryMode::kTorus;
  return p;
}

TEST(CsrTraversalTest, RandomUniformMatchesChain) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 100.0, 10.0, /*seed=*/7);
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(100.0), ExecMode::kSerial);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, ClusteredBallMatchesChain) {
  // Dense ball in a mostly empty domain: occupancy ranges from packed core
  // boxes to empty corners, so CSR rows of very different lengths meet the
  // clamped boundary blocks.
  ResourceManager rm;
  Random rng(21);
  const size_t n = 300;
  rm.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec s;
    s.position = Double3{60.0, 60.0, 60.0} + rng.UnitVector() * (25.0 * rng.Uniform());
    s.diameter = 10.0;
    rm.AddAgent(std::move(s));
  }
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(200.0), ExecMode::kSerial);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, TorusWrapMatchesChain) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 250, 0.0, 100.0, 12.0, /*seed=*/13);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(100.0), ExecMode::kSerial);
  ASSERT_TRUE(env.is_torus());
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, DegenerateTwoBoxTorusAxesMatchChain) {
  // 100/40 -> 2 boxes per axis: the periodic offset range collapses to
  // {-1, 0} so boxes are not visited twice. The traversals must agree on
  // that reduction.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 120, 0.0, 100.0, 40.0, /*seed=*/3);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(100.0), ExecMode::kSerial);
  ASSERT_EQ(env.num_boxes_axis().x, 2);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, DegenerateSingleBoxTorusAxesMatchChain) {
  // 100/60 -> 1 box per axis: the only box is its own neighborhood exactly
  // once (offset range {0}).
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 60, 0.0, 100.0, 60.0, /*seed=*/5);
  UniformGridEnvironment env;
  env.Update(rm, TorusParam(100.0), ExecMode::kSerial);
  ASSERT_EQ(env.num_boxes_axis().x, 1);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, SmallClampedDomainMatchesChain) {
  // Non-periodic degenerate shape: 1-2 boxes per axis with clamped faces.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 80, 0.0, 50.0, 30.0, /*seed=*/11);
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(50.0), ExecMode::kSerial);
  ASSERT_LE(env.num_boxes_axis().x, 2);
  ExpectValidCsr(env, rm);
  ExpectIdenticalSequences(env, rm);
}

TEST(CsrTraversalTest, ParallelBuildProducesIdenticalCsr) {
  // The CSR arrays are part of the determinism contract: serial and
  // parallel builds must flatten to byte-identical layouts.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 100.0, 10.0, /*seed=*/17);
  UniformGridEnvironment serial_env;
  serial_env.Update(rm, ClampParam(100.0), ExecMode::kSerial);
  UniformGridEnvironment parallel_env;
  parallel_env.Update(rm, ClampParam(100.0), ExecMode::kParallel);
  testutil::ExpectSameCsr(serial_env.csr(), parallel_env.csr());
}

TEST(CsrTraversalTest, EmptyPopulationHasEmptyCsr) {
  ResourceManager rm;
  UniformGridEnvironment env;
  env.Update(rm, ClampParam(100.0), ExecMode::kSerial);
  EXPECT_EQ(env.csr().box_agents().size(), 0u);
  EXPECT_EQ(env.occupied_boxes(), 0u);
  ASSERT_EQ(env.csr().box_starts().size(), 1u);
  EXPECT_EQ(env.csr().box_starts().front(), 0);
  ExpectValidCsr(env, rm);
}

}  // namespace
}  // namespace biosim
