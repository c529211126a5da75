// Per-box member-set oracle for the compacted CSR grid.
//
// BruteForceBoxMembers bins every agent on its own — one lattice lookup per
// agent, no sorting, no scans, no bitmap — and lists each non-empty box's
// members in ascending row order, which is the canonical run the grid must
// store. ExpectGridMatchesOracle then checks every occupied box's CSR run,
// the count of every box of the lattice (empty ones included, so stale
// occupancy bits from earlier builds cannot hide), and the traversal list.
#ifndef BIOSIM_TESTS_SPATIAL_GRID_ORACLE_H_
#define BIOSIM_TESTS_SPATIAL_GRID_ORACLE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/resource_manager.h"
#include "spatial/grid_geometry.h"
#include "spatial/uniform_grid.h"

namespace biosim::testutil {

/// Flat box index -> member rows (ascending) for every non-empty box.
using BoxMembers = std::map<size_t, std::vector<int32_t>>;

inline BoxMembers BruteForceBoxMembers(const ResourceManager& rm,
                                       const GridGeometry& g) {
  BoxMembers out;
  for (size_t i = 0; i < rm.size(); ++i) {
    out[g.FlatBoxIndex(g.BoxCoordinatesOf(rm.positions()[i]))].push_back(
        static_cast<int32_t>(i));
  }
  return out;
}

/// The grid's compacted CSR holds exactly the oracle's boxes, in ascending
/// flat index, each run equal to the oracle's member list; every lattice
/// box reports the oracle's count; the force traversal range covers every
/// occupied box.
inline void ExpectGridMatchesOracle(const UniformGridEnvironment& env,
                                    const ResourceManager& rm) {
  const BoxMembers oracle = BruteForceBoxMembers(rm, env.geometry());
  const ShardGrid& csr = env.csr();
  const std::vector<int32_t>& starts = csr.box_starts();
  const std::vector<int32_t>& agents = csr.box_agents();
  ASSERT_EQ(csr.occupied_boxes(), oracle.size());
  ASSERT_EQ(starts.size(), oracle.size() + 1);
  ASSERT_EQ(agents.size(), rm.size());
  EXPECT_EQ(starts.front(), 0);
  EXPECT_EQ(static_cast<size_t>(starts.back()), rm.size());
  size_t slot = 0;
  for (const auto& [box, members] : oracle) {
    ASSERT_EQ(csr.occupied_keys()[slot], box) << "slot " << slot;
    EXPECT_EQ(csr.slot_of(box), static_cast<int32_t>(slot)) << "box " << box;
    const std::vector<int32_t> run(agents.begin() + starts[slot],
                                   agents.begin() + starts[slot + 1]);
    EXPECT_EQ(run, members) << "box " << box;
    ++slot;
  }
  for (size_t b = 0; b < env.total_boxes(); ++b) {
    const auto it = oracle.find(b);
    const int32_t want =
        it == oracle.end() ? 0 : static_cast<int32_t>(it->second.size());
    ASSERT_EQ(env.box_count(b), want) << "box " << b;
  }
  EXPECT_EQ(csr.owned_slot_begin(), 0u);
  EXPECT_EQ(csr.owned_slot_end(), oracle.size());
}

/// Two grids hold byte-identical compacted CSRs.
inline void ExpectSameCsr(const ShardGrid& a, const ShardGrid& b) {
  EXPECT_EQ(a.occupied_keys(), b.occupied_keys());
  EXPECT_EQ(a.box_starts(), b.box_starts());
  EXPECT_EQ(a.box_agents(), b.box_agents());
  EXPECT_EQ(a.owned_slot_begin(), b.owned_slot_begin());
  EXPECT_EQ(a.owned_slot_end(), b.owned_slot_end());
}

}  // namespace biosim::testutil

#endif  // BIOSIM_TESTS_SPATIAL_GRID_ORACLE_H_
