#include "core/simulation.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/behaviors/apoptosis.h"
#include "core/behaviors/chemotaxis.h"
#include "core/behaviors/grow_divide.h"
#include "core/behaviors/secretion.h"
#include "spatial/kd_tree.h"

namespace biosim {
namespace {

TEST(SimulationTest, DefaultWiring) {
  Param p;
  Simulation sim(p);
  EXPECT_STREQ(sim.environment().name(), "uniform-grid");
  EXPECT_STREQ(sim.mechanics_backend().name(), "cpu");
  EXPECT_EQ(sim.step(), 0u);
  EXPECT_EQ(sim.diffusion_grid(), nullptr);
}

TEST(SimulationTest, AddCellUsesParamDefaults) {
  Param p;
  p.default_adherence = 0.9;
  p.default_density = 1.7;
  Simulation sim(p);
  AgentIndex i = sim.AddCell({10, 20, 30}, 8.0);
  EXPECT_DOUBLE_EQ(sim.rm().adherences()[i], 0.9);
  EXPECT_DOUBLE_EQ(sim.rm().densities()[i], 1.7);
}

TEST(SimulationTest, Create3DCellGridCountsAndLayout) {
  Param p;
  Simulation sim(p);
  sim.Create3DCellGrid(4, 20.0, 10.0, 16.0, 1000.0);
  EXPECT_EQ(sim.rm().size(), 64u);
  // All cells have a GrowDivide behavior.
  for (size_t i = 0; i < sim.rm().size(); ++i) {
    EXPECT_EQ(sim.rm().behaviors_of(i).size(), 1u);
  }
  AABBd b = sim.rm().Bounds();
  EXPECT_DOUBLE_EQ(b.min.x, 10.0);  // (0+0.5)*20
  EXPECT_DOUBLE_EQ(b.max.x, 70.0);  // (3+0.5)*20
}

TEST(SimulationTest, CreateRandomCellsStaysInBounds) {
  Param p;
  p.min_bound = 0;
  p.max_bound = 200;
  Simulation sim(p);
  sim.CreateRandomCells(500, 10.0);
  EXPECT_EQ(sim.rm().size(), 500u);
  for (const auto& pos : sim.rm().positions()) {
    EXPECT_TRUE(sim.rm().Bounds().Contains(pos));
    EXPECT_GE(pos.x, 0.0);
    EXPECT_LT(pos.x, 200.0);
  }
}

TEST(SimulationTest, OversizedPopulationsAreRejectedBeforeAllocating) {
  // The uniform grid's int32 CSR offsets address at most 2^31-1 agents.
  // The builders check the population they would make before reserving
  // it, so these throw at once instead of allocating (1291^3 > 2^31-1;
  // 2642246^3 wraps a 64-bit size_t).
  Param p;
  Simulation sim(p);
  for (size_t cells_per_dim : {size_t{1291}, size_t{2642246}}) {
    try {
      sim.Create3DCellGrid(cells_per_dim, 20.0, 10.0, 16.0, 1000.0);
      ADD_FAILURE() << "built a grid of " << cells_per_dim << "^3 cells";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cells_per_dim"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(sim.CreateRandomCells(size_t{1} << 31, 10.0),
               std::invalid_argument);
  EXPECT_EQ(sim.rm().size(), 0u);
  // The check counts the agents that already exist.
  sim.AddCell({1, 1, 1}, 8.0);
  try {
    sim.CreateRandomCells((size_t{1} << 31) - 1, 10.0);
    ADD_FAILURE() << "grew the population past 2^31-1";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.rm().size(), 1u);
  // Within the bound the fill proceeds.
  sim.CreateRandomCells(2, 10.0);
  EXPECT_EQ(sim.rm().size(), 3u);
}

TEST(SimulationTest, StepAdvancesAndProfiles) {
  Param p;
  Simulation sim(p);
  sim.CreateRandomCells(100, 10.0);
  sim.Simulate(3);
  EXPECT_EQ(sim.step(), 3u);
  EXPECT_GT(sim.profile().TotalMs("mechanical forces"), 0.0);
  EXPECT_GT(sim.profile().TotalMs("neighborhood update"), 0.0);
  EXPECT_EQ(sim.profile().entries()[0].calls(), 3u);
}

TEST(SimulationTest, ShardedStepPartitionsOncePerStep) {
  // Behaviors never read shard ownership, so the sharded step derives it
  // once, after commit: N steps record N partition samples and every stage
  // that runs once per step records N as well. The shard phases are the
  // shard runtime's Update, nested in "neighborhood update".
  Param p;
  p.num_shards = 4;
  p.max_bound = 240.0;
  Simulation sim(p);
  sim.CreateRandomCells(200, 8.0);
  constexpr uint64_t kSteps = 5;
  sim.Simulate(kSteps);
  for (const char* stage : {"cell behaviors", "commit", "neighborhood update",
                            "partition", "halo exchange", "shard grids"}) {
    const OpProfile::Entry* e = sim.profile().Find(stage);
    ASSERT_NE(e, nullptr) << stage;
    EXPECT_EQ(e->calls(), kSteps) << stage;
  }
}

TEST(SimulationTest, OverlappingCellsRelaxApart) {
  Param p;
  p.random_seed = 5;
  Simulation sim(p);
  // Two heavily overlapping cells.
  sim.AddCell({50, 50, 50}, 10.0);
  sim.AddCell({54, 50, 50}, 10.0);
  double d0 = Distance(sim.rm().positions()[0], sim.rm().positions()[1]);
  sim.Simulate(50);
  double d1 = Distance(sim.rm().positions()[0], sim.rm().positions()[1]);
  EXPECT_GT(d1, d0);
  EXPECT_LE(d1, 10.5);  // they stop separating once contact is resolved
}

TEST(SimulationTest, MaxDisplacementZeroFreezesPositions) {
  Param p;
  p.simulation_max_displacement = 0.0;  // benchmark B trick
  Simulation sim(p);
  sim.CreateRandomCells(200, 12.0);
  auto before = sim.rm().positions();
  sim.Simulate(5);
  EXPECT_EQ(sim.rm().positions(), before);
}

TEST(SimulationTest, KdTreeEnvironmentIsDropInReplacement) {
  Param p;
  Simulation sim(p);
  sim.SetEnvironment(std::make_unique<KdTreeEnvironment>());
  sim.CreateRandomCells(200, 10.0);
  sim.Simulate(2);
  EXPECT_EQ(sim.step(), 2u);
  EXPECT_STREQ(sim.environment().name(), "kd-tree");
}

TEST(SimulationTest, SerialAndParallelRunsMatchExactly) {
  auto run = [](ExecMode mode) {
    Param p;
    p.random_seed = 11;
    Simulation sim(p);
    sim.SetExecMode(mode);
    sim.Create3DCellGrid(3, 20.0, 10.0, 11.0, 4000.0);
    sim.Simulate(5);
    return sim.rm().positions();
  };
  auto serial = run(ExecMode::kSerial);
  auto parallel = run(ExecMode::kParallel);
  ASSERT_EQ(serial.size(), parallel.size());
  // Same division decisions and same grid-neighbor sets; only the
  // environment's linked-list order may differ, which reorders FP sums.
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i].x, parallel[i].x, 1e-9);
    EXPECT_NEAR(serial[i].y, parallel[i].y, 1e-9);
    EXPECT_NEAR(serial[i].z, parallel[i].z, 1e-9);
  }
}

TEST(SimulationTest, DiffusionGridIntegration) {
  Param p;
  Simulation sim(p);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", p.min_bound, p.max_bound, 16, 100.0, 0.0));
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "glucose", p.min_bound, p.max_bound, 16, 50.0, 0.0));
  EXPECT_NE(sim.diffusion_grid(), nullptr);
  EXPECT_EQ(sim.diffusion_grid("glucose")->substance_name(), "glucose");
  EXPECT_EQ(sim.diffusion_grid("unknown"), nullptr);

  // A secreting cell raises the local concentration over time.
  AgentIndex i = sim.AddCell({500, 500, 500}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Secretion>(10.0));
  sim.Simulate(10);
  EXPECT_GT(sim.diffusion_grid("oxygen")->TotalAmount(), 0.0);
  EXPECT_GT(sim.profile().TotalMs("diffusion"), 0.0);
}

TEST(SimulationTest, RepeatedRandomFillsDoNotStackCells) {
  // Regression: CreateRandomCells re-seeded its RNG from param.random_seed
  // on every call, so a second fill replayed the first call's positions and
  // stacked each new cell exactly onto an existing one (explosive overlap
  // forces). Each call must draw from a fresh seed-derived stream.
  Param p;
  p.min_bound = 0;
  p.max_bound = 100;
  Simulation sim(p);
  sim.CreateRandomCells(50, 8.0);
  sim.CreateRandomCells(50, 8.0);
  const auto& pos = sim.rm().positions();
  ASSERT_EQ(pos.size(), 100u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_GT(SquaredDistance(pos[i], pos[50 + i]), 0.0)
        << "cell " << 50 + i << " stacked onto cell " << i;
  }
  // Call 0 keeps the historical stream: a one-call sim is unchanged.
  Simulation fresh(p);
  fresh.CreateRandomCells(50, 8.0);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(fresh.rm().positions()[i], pos[i]);
  }
}

TEST(SimulationTest, NamedSecretionRoutesToItsOwnGrid) {
  // Regression: the deposit-merge loop applied every buffered deposit to
  // the *first* grid, so multi-substance models silently cross-fed. Each
  // deposit now carries its target grid through the sink.
  Param p;
  Simulation sim(p);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", p.min_bound, p.max_bound, 16, 0.0, 0.0));
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "glucose", p.min_bound, p.max_bound, 16, 0.0, 0.0));
  AgentIndex i = sim.AddCell({500, 500, 500}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Secretion>("glucose", 10.0));
  AgentIndex j = sim.AddCell({200, 200, 200}, 10.0);
  sim.rm().AttachBehavior(j, std::make_unique<Secretion>(4.0));  // default
  sim.Simulate(5);
  // The named secretion landed only in glucose; the default-grid secretion
  // landed only in oxygen.
  EXPECT_GT(sim.diffusion_grid("glucose")->GetConcentration({500, 500, 500}),
            0.0);
  EXPECT_DOUBLE_EQ(
      sim.diffusion_grid("oxygen")->GetConcentration({500, 500, 500}), 0.0);
  EXPECT_GT(sim.diffusion_grid("oxygen")->GetConcentration({200, 200, 200}),
            0.0);
  EXPECT_DOUBLE_EQ(
      sim.diffusion_grid("glucose")->GetConcentration({200, 200, 200}), 0.0);
  // An unknown substance name is a silent no-op, not a crash.
  sim.rm().AttachBehavior(j, std::make_unique<Secretion>("unknown", 1.0));
  EXPECT_NO_THROW(sim.Simulate(1));
}

TEST(SimulationTest, ChemotaxisPullsCellUpGradient) {
  Param p;
  p.default_adherence = 0.0;
  Simulation sim(p);
  auto grid = std::make_unique<DiffusionGrid>("attractant", 0.0, 1000.0, 20,
                                              0.0, 0.0);
  grid->Initialize([](const Double3& pos) { return pos.x; });  // ramp in +x
  sim.AddDiffusionGrid(std::move(grid));
  AgentIndex i = sim.AddCell({500, 500, 500}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Chemotaxis>(50.0));
  double x0 = sim.rm().positions()[i].x;
  sim.Simulate(20);
  EXPECT_GT(sim.rm().positions()[i].x, x0 + 1.0);
}

enum class RowFate { kKeep, kDivide, kDie, kDivideAndDie, kDivideTwice };

struct CommittedRow {
  AgentUid uid;
  Double3 position;
  bool operator==(const CommittedRow&) const = default;
};

void PrintTo(const CommittedRow& r, std::ostream* os) {
  *os << "{uid " << r.uid << ", " << r.position << "}";
}

/// One step at `workers` host workers over cells 40 um apart, row k given
/// fates[k]; returns every row after the commit. Displacements are frozen,
/// so the rows show the commit alone: removals in descending row order by
/// swap-with-last, then births in mother-row order with fresh uids.
std::vector<CommittedRow> CommitOneStep(uint32_t workers,
                                        const std::vector<RowFate>& fates) {
  testutil::ScopedWorkers scoped(workers);
  Param p;
  p.simulation_max_displacement = 0.0;
  Simulation sim(p);
  for (size_t k = 0; k < fates.size(); ++k) {
    AgentIndex i = sim.AddCell(
        {100.0 + 40.0 * static_cast<double>(k), 500.0, 500.0}, 12.0);
    auto divide = [&] {
      sim.rm().AttachBehavior(i, std::make_unique<GrowDivide>(5.0, 0.0));
    };
    auto die = [&] {
      // rate * dt >= 1: certain death.
      sim.rm().AttachBehavior(
          i, std::make_unique<Apoptosis>(2.0 / p.simulation_time_step));
    };
    switch (fates[k]) {
      case RowFate::kKeep:
        break;
      case RowFate::kDivide:
        divide();
        break;
      case RowFate::kDie:
        die();
        break;
      case RowFate::kDivideAndDie:
        divide();
        die();
        break;
      case RowFate::kDivideTwice:
        divide();
        divide();
        break;
    }
  }
  sim.Simulate(1);
  std::vector<CommittedRow> rows;
  for (size_t i = 0; i < sim.rm().size(); ++i) {
    rows.push_back({sim.rm().uids()[i], sim.rm().positions()[i]});
  }
  return rows;
}

TEST(SimulationTest, CommitOfAMixedStepIsPinnedAtAnyWorkerCount) {
  using enum RowFate;
  // Rows 5, 3 and 2 die in that order, each taking the last row's place;
  // the daughters of rows 1, 3, 4, 4 and 6 get uids 8..12 in that order.
  // The values were recorded with the mutex-queued commit this one
  // replaced.
  const std::vector<RowFate> fates{kKeep,        kDivide, kDie,    kDivideAndDie,
                                   kDivideTwice, kDie,    kDivide, kKeep};
  const std::vector<CommittedRow> expected{
      {0, {0x1.9p+6, 0x1.f4p+8, 0x1.f4p+8}},
      {1, {0x1.20726ebd7c57fp+7, 0x1.f27663502d466p+8, 0x1.f34d7c9717b4cp+8}},
      {7, {0x1.7cp+8, 0x1.f4p+8, 0x1.f4p+8}},
      {6, {0x1.54d1f1f5a094cp+8, 0x1.f052deb6ecc56p+8, 0x1.f1498890a5ec7p+8}},
      {4, {0x1.01b30e7c34e4bp+8, 0x1.ed368b71fb1bp+8, 0x1.ef4062f35cff2p+8}},
      {8, {0x1.0ec34fe157853p+7, 0x1.f5ae6d59dc373p+8, 0x1.f4c335bd8f694p+8}},
      {9, {0x1.bd9b83cdbc388p+7, 0x1.f3ed02a659b18p+8, 0x1.f06c0320d7c42p+8}},
      {10, {0x1.0543c9e2c1c91p+8, 0x1.f7bb375385a81p+8, 0x1.f69c518bd4d19p+8}},
      {11, {0x1.03b7a343aa13ep+8, 0x1.f32a85c225709p+8, 0x1.f36aa3de2e7b4p+8}},
      {12, {0x1.532332af89632p+8, 0x1.f7ddcc6ab8611p+8, 0x1.f6da611de325fp+8}},
  };
  EXPECT_EQ(CommitOneStep(1, fates), expected);
  EXPECT_EQ(CommitOneStep(4, fates), expected);

  // Fewer rows than workers: at 4 workers two of the four chunks are empty.
  const std::vector<RowFate> small{kDie, kDivideTwice};
  const std::vector<CommittedRow> small_expected{
      {1, {0x1.273ff1d85122fp+7, 0x1.f139649c2f314p+8, 0x1.f2bdb8a202b3cp+8}},
      {2, {0x1.0ec34fe157853p+7, 0x1.f5ae6d59dc373p+8, 0x1.f4c335bd8f694p+8}},
      {3, {0x1.190208cb1857dp+7, 0x1.f3d1082820eb1p+8, 0x1.f3eab2dfba53ap+8}},
  };
  EXPECT_EQ(CommitOneStep(1, small), small_expected);
  EXPECT_EQ(CommitOneStep(4, small), small_expected);
}

}  // namespace
}  // namespace biosim
