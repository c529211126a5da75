// ShardGrid: a shard window's occupancy-compacted CSR must present, for
// every owned box, exactly the candidate runs the whole-lattice uniform
// grid presents — same rows, same ascending order, same canonical 27-block
// enumeration — while storing only occupied boxes (spatial/shard_grid.h).
// The resolver oracle checks the rank-indexed bitmap lookup against a
// binary search of the occupied keys on hand-laid lattices whose rows
// straddle 64-bit words, wrap, and reduce their offsets.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "spatial/grid_geometry.h"
#include "spatial/shard_grid.h"
#include "spatial/shard_partition.h"
#include "spatial/uniform_grid.h"

namespace biosim {
namespace {

/// The uniform grid's member run for flat box `box` (empty when no agent
/// lives there).
std::vector<int32_t> GlobalRun(const UniformGridEnvironment& grid,
                               size_t box) {
  const ShardGrid& csr = grid.csr();
  const int32_t s = csr.slot_of(box);
  if (s < 0) {
    return {};
  }
  return {csr.box_agents().begin() + csr.box_starts()[s],
          csr.box_agents().begin() + csr.box_starts()[s + 1]};
}

ResourceManager MakePopulation(size_t n, double lo, double hi, uint64_t seed,
                               double diameter = 8.0) {
  ResourceManager rm;
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    NewAgentSpec spec;
    spec.position = rng.UniformInCube(lo, hi);
    spec.diameter = diameter;
    rm.AddAgent(std::move(spec));
  }
  return rm;
}

TEST(ShardGridTest, SingleShardReproducesTheGlobalCsrRuns) {
  Param p;
  p.max_bound = 200.0;
  auto rm = MakePopulation(300, 0.0, 200.0, 42);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();

  ShardGrid sg;
  sg.Configure(g, 0, g.num_boxes_axis.z);
  std::vector<int32_t> members(rm.size());
  std::iota(members.begin(), members.end(), 0);
  sg.Update(members, rm.positions().data());

  // Every agent present exactly once, in a box-run that matches the global
  // grid's run for the same box.
  EXPECT_EQ(sg.box_agents().size(), rm.size());
  ASSERT_EQ(sg.owned_slot_begin(), 0u);
  ASSERT_EQ(sg.owned_slot_end(), sg.occupied_boxes());
  for (uint32_t slot = 0; slot < sg.occupied_boxes(); ++slot) {
    const int32_t begin = sg.box_starts()[slot];
    const int32_t end = sg.box_starts()[slot + 1];
    ASSERT_LT(begin, end);
    // Rows ascending within the run.
    for (int32_t i = begin + 1; i < end; ++i) {
      EXPECT_LT(sg.box_agents()[i - 1], sg.box_agents()[i]);
    }
    // The global grid bins the first resident into the same box as the rest.
    const auto c = g.BoxCoordinatesOf(
        rm.positions()[static_cast<size_t>(sg.box_agents()[begin])]);
    const std::vector<int32_t> run(sg.box_agents().begin() + begin,
                                   sg.box_agents().begin() + end);
    EXPECT_EQ(GlobalRun(grid, g.FlatBoxIndex(c)), run);
  }
}

TEST(ShardGridTest, NeighborSlotsEnumerateCanonicalOrderSkippingEmpties) {
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(80, 0.0, 120.0, 7);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();

  ShardGrid sg;
  sg.Configure(g, 0, g.num_boxes_axis.z);
  std::vector<int32_t> members(rm.size());
  std::iota(members.begin(), members.end(), 0);
  sg.Update(members, rm.positions().data());

  CsrGridView view = sg.View();
  for (uint32_t slot = sg.owned_slot_begin(); slot < sg.owned_slot_end();
       ++slot) {
    size_t shard_slots[27];
    const int shard_count = view.neighbor_slots(view.self, slot, shard_slots);

    // Global enumeration of the same box, filtered to non-empty boxes, must
    // match the shard's slot sequence element-wise (mapped through the
    // shard's runs).
    const auto c = g.BoxCoordinatesOf(
        rm.positions()[static_cast<size_t>(sg.box_agents()[sg.box_starts()[slot]])]);
    size_t global_boxes[27];
    const int global_count = g.NeighborBoxesOf(c, global_boxes);
    int matched = 0;
    for (int b = 0; b < global_count; ++b) {
      const std::vector<int32_t> global = GlobalRun(grid, global_boxes[b]);
      if (global.empty()) {
        continue;  // empty in the global grid -> shard has no slot for it
      }
      ASSERT_LT(matched, shard_count);
      const size_t s2 = shard_slots[matched++];
      // Same resident run.
      const std::vector<int32_t> run(
          sg.box_agents().begin() + sg.box_starts()[s2],
          sg.box_agents().begin() + sg.box_starts()[s2 + 1]);
      EXPECT_EQ(run, global);
    }
    EXPECT_EQ(matched, shard_count);
  }
}

TEST(ShardGridTest, PartitionedShardsCoverEveryGlobalRunExactlyOnce) {
  Param p;
  p.max_bound = 160.0;
  p.boundary_mode = BoundaryMode::kTorus;
  auto rm = MakePopulation(240, 0.0, 160.0, 99);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();
  const int32_t planes = g.num_boxes_axis.z;

  for (uint32_t shards : {2u, 3u, 4u}) {
    auto part = ShardPartition::Split(shards, planes, ShardBalance::kStatic,
                                      {});
    // Owner-assigned members plus one-plane halos, as the runtime builds.
    std::vector<std::vector<int32_t>> members(shards);
    for (size_t i = 0; i < rm.size(); ++i) {
      const auto c = g.BoxCoordinatesOf(rm.positions()[i]);
      for (uint32_t k = 0; k < shards; ++k) {
        const int32_t lo = part.first_plane(k) - 1;
        const int32_t hi = part.end_plane(k);  // inclusive halo above
        const int32_t z = c.z;
        const bool in_window =
            (z >= lo && z <= hi) ||
            // torus wrap of the window edges
            (lo < 0 && z == planes + lo) || (hi >= planes && z == hi - planes);
        if (in_window) {
          members[k].push_back(static_cast<int32_t>(i));
        }
      }
    }

    size_t rows_covered = 0;
    for (uint32_t k = 0; k < shards; ++k) {
      ShardGrid sg;
      sg.Configure(g, part.first_plane(k), part.end_plane(k));
      sg.Update(members[k], rm.positions().data());
      rows_covered +=
          static_cast<size_t>(sg.box_starts()[sg.owned_slot_end()] -
                              sg.box_starts()[sg.owned_slot_begin()]);
      // Owned slots are exactly the boxes in owned planes.
      for (uint32_t slot = 0; slot < sg.occupied_boxes(); ++slot) {
        const int32_t row = sg.box_agents()[sg.box_starts()[slot]];
        const int32_t z = g.BoxCoordinatesOf(rm.positions()[row]).z;
        const bool owned = z >= part.first_plane(k) && z < part.end_plane(k);
        EXPECT_EQ(owned, slot >= sg.owned_slot_begin() &&
                             slot < sg.owned_slot_end())
            << "shards=" << shards << " shard " << k << " slot " << slot;
      }
    }
    // The owned boxes of all shards partition the population: every row in
    // exactly one owned run.
    EXPECT_EQ(rows_covered, rm.size()) << "shards=" << shards;
  }
}

TEST(ShardGridTest, MemberOutsideWindowThrows) {
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(50, 0.0, 120.0, 3);

  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();
  if (g.num_boxes_axis.z < 4) {
    GTEST_SKIP() << "domain too flat to have an out-of-window plane";
  }
  ShardGrid sg;
  sg.Configure(g, 0, 1);  // window = planes {0, 1} (clamped below)
  // Find a row binned far outside the window.
  int32_t outside = -1;
  for (size_t i = 0; i < rm.size(); ++i) {
    if (g.BoxCoordinatesOf(rm.positions()[i]).z >= 3) {
      outside = static_cast<int32_t>(i);
      break;
    }
  }
  ASSERT_GE(outside, 0);
  std::vector<int32_t> members{outside};
  EXPECT_THROW(sg.Update(members, rm.positions().data()), std::logic_error);
}

TEST(ShardGridTest, UpdateIsIdempotentAcrossRebuilds) {
  Param p;
  p.max_bound = 120.0;
  auto rm = MakePopulation(100, 0.0, 120.0, 5);
  UniformGridEnvironment grid;
  grid.Update(rm, p, ExecMode::kSerial);
  const GridGeometry& g = grid.geometry();

  ShardGrid sg;
  sg.Configure(g, 0, g.num_boxes_axis.z);
  std::vector<int32_t> members(rm.size());
  std::iota(members.begin(), members.end(), 0);
  sg.Update(members, rm.positions().data());
  const auto starts = sg.box_starts();
  const auto agents = sg.box_agents();
  const uint32_t owned_begin = sg.owned_slot_begin();
  const uint32_t owned_end = sg.owned_slot_end();
  sg.Update(members, rm.positions().data());
  EXPECT_EQ(sg.box_starts(), starts);
  EXPECT_EQ(sg.box_agents(), agents);
  EXPECT_EQ(sg.owned_slot_begin(), owned_begin);
  EXPECT_EQ(sg.owned_slot_end(), owned_end);
}

/// A unit-box lattice of nx x ny x nz boxes at the origin, offsets reduced
/// as GridGeometry::Derive reduces them.
GridGeometry UnitLattice(int32_t nx, int32_t ny, int32_t nz, bool torus) {
  GridGeometry g;
  g.box_length = 1.0;
  g.inv_box_length = 1.0;
  g.num_boxes_axis = {nx, ny, nz};
  g.torus = torus;
  g.SetNeighborOffsets();
  return g;
}

/// The lattices of the resolver oracle: rows of 1, 2, 3, 63, 65 and 100
/// boxes (3-runs straddle 64-bit words at 63, 65 and 100), each in a slab
/// and in shapes whose y or z axis is short enough to reduce its offsets.
std::vector<GridGeometry> OracleLattices() {
  std::vector<GridGeometry> out;
  for (bool torus : {false, true}) {
    for (int32_t nx : {1, 2, 3, 63, 65, 100}) {
      out.push_back(UnitLattice(nx, 3, 4, torus));
      out.push_back(UnitLattice(nx, 2, 1, torus));
      out.push_back(UnitLattice(nx, 1, 2, torus));
    }
  }
  return out;
}

/// The old enumeration, kept as the reference for the row form: three
/// nested offset loops with modulo wrap.
std::vector<size_t> ModuloNeighborBoxes(const GridGeometry& g, const Int3& c) {
  const Int3& n = g.num_boxes_axis;
  std::vector<size_t> out;
  for (int32_t dz = g.off_lo[2]; dz <= g.off_hi[2]; ++dz) {
    for (int32_t dy = g.off_lo[1]; dy <= g.off_hi[1]; ++dy) {
      for (int32_t dx = g.off_lo[0]; dx <= g.off_hi[0]; ++dx) {
        Int3 v{c.x + dx, c.y + dy, c.z + dz};
        if (g.torus) {
          v = {(v.x + n.x) % n.x, (v.y + n.y) % n.y, (v.z + n.z) % n.z};
        } else if (v.x < 0 || v.x >= n.x || v.y < 0 || v.y >= n.y ||
                   v.z < 0 || v.z >= n.z) {
          continue;
        }
        out.push_back(g.FlatBoxIndex(v));
      }
    }
  }
  return out;
}

TEST(GridGeometryTest, RowFormMatchesTheModuloEnumeration) {
  for (const GridGeometry& g : OracleLattices()) {
    for (size_t b = 0; b < g.TotalBoxes(); ++b) {
      const Int3 c = g.BoxCoordinatesOfIndex(b);
      std::vector<size_t> got;
      g.ForEachNeighborCoord(
          c, [&](const Int3& nc) { got.push_back(g.FlatBoxIndex(nc)); });
      ASSERT_EQ(got, ModuloNeighborBoxes(g, c))
          << "lattice " << g.num_boxes_axis.x << "x" << g.num_boxes_axis.y
          << "x" << g.num_boxes_axis.z << (g.torus ? " torus" : " open")
          << ", box " << b;
    }
  }
}

/// Agent positions over the chosen boxes, at least `min_rows` of them (so
/// the build splits into several chunks), in a shuffled row order.
std::vector<Double3> PopulateBoxes(const GridGeometry& g,
                                   const std::vector<size_t>& boxes,
                                   size_t min_rows, uint64_t seed) {
  const size_t reps = (min_rows + boxes.size() - 1) / boxes.size();
  std::vector<Double3> out;
  Random rng(seed);
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t b : boxes) {
      const Int3 c = g.BoxCoordinatesOfIndex(b);
      out.push_back({c.x + rng.Uniform(0.1, 0.9), c.y + rng.Uniform(0.1, 0.9),
                     c.z + rng.Uniform(0.1, 0.9)});
    }
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.UniformInt(i)]);
  }
  return out;
}

/// Planes of the window around owned planes [begin, end): the owned planes
/// plus one halo plane on each side, wrapped on a torus, clipped when open.
std::vector<int32_t> WindowPlanes(const GridGeometry& g, int32_t begin,
                                  int32_t end) {
  const int32_t nz = g.num_boxes_axis.z;
  std::set<int32_t> planes;
  for (int32_t z = begin - 1; z <= end; ++z) {
    if (g.torus) {
      planes.insert((z + nz) % nz);
    } else if (z >= 0 && z < nz) {
      planes.insert(z);
    }
  }
  return {planes.begin(), planes.end()};
}

/// Every owned slot's NeighborSlots equals ForEachNeighborCoord's boxes
/// looked up by binary search in occupied_keys(), element by element, and
/// slot_of agrees with the same search on every window box.
void ExpectResolverMatchesOracle(const ShardGrid& sg,
                                 const std::vector<int32_t>& window,
                                 const std::string& where) {
  SCOPED_TRACE(where);
  const GridGeometry& g = sg.geometry();
  const size_t nx = static_cast<size_t>(g.num_boxes_axis.x);
  const size_t plane = nx * static_cast<size_t>(g.num_boxes_axis.y);
  const std::vector<uint32_t>& keys = sg.occupied_keys();
  auto search = [&](size_t key) -> int32_t {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    return it != keys.end() && *it == key
               ? static_cast<int32_t>(it - keys.begin())
               : -1;
  };
  ASSERT_EQ(sg.window_planes(), window.size());
  for (size_t key = 0; key < window.size() * plane; ++key) {
    ASSERT_EQ(sg.slot_of(key), search(key)) << "window box " << key;
  }
  const CsrGridView view = sg.View();
  for (uint32_t slot = sg.owned_slot_begin(); slot < sg.owned_slot_end();
       ++slot) {
    const size_t key = keys[slot];
    const Int3 c{static_cast<int32_t>(key % plane % nx),
                 static_cast<int32_t>(key % plane / nx),
                 window[key / plane]};
    std::vector<size_t> want;
    g.ForEachNeighborCoord(c, [&](const Int3& nc) {
      const auto wz = std::find(window.begin(), window.end(), nc.z);
      ASSERT_NE(wz, window.end()) << "an owned box's block left the window";
      const int32_t s =
          search(static_cast<size_t>(wz - window.begin()) * plane +
                 static_cast<size_t>(nc.y) * nx + static_cast<size_t>(nc.x));
      if (s >= 0) {
        want.push_back(static_cast<size_t>(s));
      }
    });
    size_t got[27];
    const int count = view.neighbor_slots(view.self, slot, got);
    ASSERT_EQ(std::vector<size_t>(got, got + count), want)
        << "slot " << slot << " box (" << c.x << ", " << c.y << ", " << c.z
        << ")";
  }
}

TEST(ShardGridTest, NeighborSlotsMatchTheBinarySearchOracle) {
  const uint32_t threads_before = HardwareThreads();
  uint64_t seed = 1;
  for (const GridGeometry& g : OracleLattices()) {
    const int32_t nz = g.num_boxes_axis.z;
    std::vector<size_t> dense(g.TotalBoxes());
    std::iota(dense.begin(), dense.end(), size_t{0});
    std::vector<size_t> sparse;
    Random pick(seed);
    for (size_t b = 0; b < g.TotalBoxes(); ++b) {
      if (pick.Uniform(0.0, 1.0) < 0.1) {
        sparse.push_back(b);
      }
    }
    if (sparse.empty()) {
      sparse.push_back(g.TotalBoxes() - 1);
    }
    for (const auto* boxes : {&dense, &sparse}) {
      const std::vector<Double3> pos = PopulateBoxes(g, *boxes, 16400, ++seed);
      // Every owned plane range, the whole lattice included: on a torus
      // the whole window's halo wraps onto its own owned planes, and a
      // two-plane lattice's two halo planes are one plane.
      for (int32_t begin = 0; begin < nz; ++begin) {
        for (int32_t end = begin + 1; end <= nz; ++end) {
          const std::vector<int32_t> window = WindowPlanes(g, begin, end);
          std::vector<int32_t> members;
          for (size_t i = 0; i < pos.size(); ++i) {
            if (std::binary_search(window.begin(), window.end(),
                                   g.BoxCoordinatesOf(pos[i]).z)) {
              members.push_back(static_cast<int32_t>(i));
            }
          }
          ShardGrid sg;
          sg.Configure(g, begin, end);
          for (uint32_t threads : {1u, 2u, 4u}) {
            SetNumThreads(threads);
            sg.Update(members, pos.data(), ExecMode::kParallel);
            ExpectResolverMatchesOracle(
                sg, window,
                std::to_string(g.num_boxes_axis.x) + "x" +
                    std::to_string(g.num_boxes_axis.y) + "x" +
                    std::to_string(nz) + (g.torus ? " torus" : " open") +
                    (boxes == &dense ? " dense" : " sparse") + ", owned [" +
                    std::to_string(begin) + ", " + std::to_string(end) +
                    "), " + std::to_string(threads) + " threads");
            if (::testing::Test::HasFatalFailure()) {
              SetNumThreads(threads_before);
              return;
            }
          }
        }
      }
    }
  }
  SetNumThreads(threads_before);
}

TEST(ShardPartitionTest, StaticSplitCoversAllPlanesContiguously) {
  auto part = ShardPartition::Split(4, 10, ShardBalance::kStatic, {});
  EXPECT_EQ(part.plane_begin.front(), 0);
  EXPECT_EQ(part.plane_begin.back(), 10);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_LT(part.first_plane(k), part.end_plane(k));  // >= 1 plane each
    for (int32_t z = part.first_plane(k); z < part.end_plane(k); ++z) {
      EXPECT_EQ(part.OwnerOfPlane(z), static_cast<int32_t>(k));
    }
  }
}

TEST(ShardPartitionTest, AdaptiveSplitFollowsTheLoadHistogram) {
  // All the load in the last two planes: the first shards should take most
  // of the empty planes, the loaded planes should split across shards.
  std::vector<uint64_t> load(10, 0);
  load[8] = 500;
  load[9] = 500;
  auto part = ShardPartition::Split(2, 10, ShardBalance::kAdaptive, load);
  // Shard 0 keeps taking planes until it holds ~half the load -> it must
  // own plane 8 (load 500 = half) and stop there.
  EXPECT_EQ(part.end_plane(0), 9);
  EXPECT_EQ(part.first_plane(1), 9);
}

TEST(ShardPartitionTest, RejectsMoreShardsThanPlanes) {
  try {
    ShardPartition::Split(8, 3, ShardBalance::kStatic, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("8 shards exceed the 3 z-planes"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ShardPartition::Split(0, 3, ShardBalance::kStatic, {}),
               std::invalid_argument);
}

TEST(ShardPartitionTest, AdaptiveAlwaysGivesEveryShardAPlane) {
  // Degenerate: every agent in plane 0. Adaptive must still hand planes
  // 1..3 out so each shard owns >= 1 plane.
  std::vector<uint64_t> load(4, 0);
  load[0] = 1000;
  auto part = ShardPartition::Split(4, 4, ShardBalance::kAdaptive, load);
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_GE(part.end_plane(k) - part.first_plane(k), 1);
  }
}

}  // namespace
}  // namespace biosim
