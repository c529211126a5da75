// Shared helpers for the test suite.
#ifndef BIOSIM_TESTS_TEST_UTIL_H_
#define BIOSIM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "core/resource_manager.h"
#include "core/sim_context.h"
#include "core/thread_pool.h"

namespace biosim::testutil {

/// Commit the births and removals that behaviors run outside a Simulation
/// appended to `effects`, as Simulation's commit stage does, and empty
/// those lists. Returns the number of structural changes applied.
inline size_t CommitEffects(ResourceManager& rm, BehaviorEffects& effects) {
  return rm.CommitStructuralChanges(std::exchange(effects.removals, {}),
                                    std::exchange(effects.births, {}));
}

/// Populate `rm` with `n` cells of the given diameter at uniform random
/// positions inside [lo, hi)^3.
inline void FillRandomCells(ResourceManager* rm, size_t n, double lo,
                            double hi, double diameter, uint64_t seed = 42) {
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec s;
    s.position = rng.UniformInCube(lo, hi);
    s.diameter = diameter;
    rm->AddAgent(std::move(s));
  }
}

/// Populate `rm` with a jittered cubic lattice of cells in x-major creation
/// order — the initial layout of the paper's benchmark A. Consecutive rows
/// are spatial neighbors, so warp accesses coalesce (the layout FP32's 2x
/// depends on).
inline void FillLatticeCells(ResourceManager* rm, size_t per_dim,
                             double spacing, double diameter,
                             double jitter = 0.0, uint64_t seed = 42) {
  Random rng(seed);
  rm->Reserve(per_dim * per_dim * per_dim);
  for (size_t x = 0; x < per_dim; ++x) {
    for (size_t y = 0; y < per_dim; ++y) {
      for (size_t z = 0; z < per_dim; ++z) {
        NewAgentSpec s;
        s.position = {(x + 0.5) * spacing + rng.Uniform(-jitter, jitter),
                      (y + 0.5) * spacing + rng.Uniform(-jitter, jitter),
                      (z + 0.5) * spacing + rng.Uniform(-jitter, jitter)};
        s.diameter = diameter;
        rm->AddAgent(std::move(s));
      }
    }
  }
}

/// Randomly permute the rows of `rm` — the memory layout benchmark A decays
/// into after many division steps (daughters append at the end), which is
/// what Improvement II's Z-order sort repairs.
inline void ShuffleAgents(ResourceManager* rm, uint64_t seed = 99) {
  Random rng(seed);
  std::vector<AgentIndex> perm(rm->size());
  for (size_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
  }
  rm->ApplyPermutation(perm);
}

/// O(n^2) reference neighbor search: sorted indices of all agents within
/// `radius` of `query` (exclusive).
inline std::vector<AgentIndex> BruteForceNeighbors(const ResourceManager& rm,
                                                   AgentIndex query,
                                                   double radius) {
  std::vector<AgentIndex> out;
  const auto& pos = rm.positions();
  double r2 = radius * radius;
  for (size_t j = 0; j < rm.size(); ++j) {
    if (j != query && SquaredDistance(pos[query], pos[j]) <= r2) {
      out.push_back(j);
    }
  }
  return out;
}

/// Collect an environment's neighbor set for `query`, sorted.
template <typename Env>
std::vector<AgentIndex> CollectNeighbors(const Env& env,
                                         const ResourceManager& rm,
                                         AgentIndex query, double radius) {
  std::vector<AgentIndex> out;
  env.ForEachNeighborWithinRadius(query, rm, radius,
                                  [&](AgentIndex j, double) { out.push_back(j); });
  std::sort(out.begin(), out.end());
  return out;
}

/// A scratch file path private to the running test case and process:
/// <TempDir>/<suite>.<test>.<pid>.<name>. ctest runs every case in its own
/// process, concurrently under -j, so two cases that join TempDir() to the
/// same literal name clobber each other's files (biosim-lint rule
/// temp-path-literal rejects that pattern).
inline std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') {
    path += '/';
  }
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string id = test != nullptr ? std::string(test->test_suite_name()) +
                                         "." + test->name()
                                   : std::string("no_test");
  // Parameterized suites and cases carry '/' in their names.
  std::replace(id.begin(), id.end(), '/', '_');
  return path + id + "." + std::to_string(getpid()) + "." + name;
}

/// Sets the host worker count for its lifetime and restores the previous
/// one afterwards, so later suites in the binary see what they started
/// with.
class ScopedWorkers {
 public:
  explicit ScopedWorkers(uint32_t n) : previous_(HardwareThreads()) {
    SetNumThreads(n);
  }
  ~ScopedWorkers() { SetNumThreads(previous_); }
  ScopedWorkers(const ScopedWorkers&) = delete;
  ScopedWorkers& operator=(const ScopedWorkers&) = delete;

 private:
  uint32_t previous_;
};

}  // namespace biosim::testutil

#endif  // BIOSIM_TESTS_TEST_UTIL_H_
