// Behavior-framework tests: the stock behaviors' contracts and their
// interaction with the simulation loop.
#include <gtest/gtest.h>

#include <vector>

#include "../test_util.h"
#include "core/behaviors/apoptosis.h"
#include "core/behaviors/chemotaxis.h"
#include "core/behaviors/grow_divide.h"
#include "core/behaviors/random_walk.h"
#include "core/behaviors/secretion.h"
#include "core/simulation.h"

namespace biosim {
namespace {

TEST(RandomWalkTest, SetsUnitScaledTractorForce) {
  Param param;
  ResourceManager rm;
  BehaviorEffects effects;
  SimContext ctx(param, rm, /*step=*/3, effects);
  NewAgentSpec s;
  s.position = {50, 50, 50};
  AgentIndex i = rm.AddAgent(std::move(s));
  Cell cell(rm, i);
  RandomWalk walk(7.5);
  walk.Run(cell, ctx);
  EXPECT_NEAR(cell.tractor_force().Norm(), 7.5, 1e-12);
}

TEST(RandomWalkTest, DirectionChangesAcrossSteps) {
  Param param;
  ResourceManager rm;
  NewAgentSpec s;
  AgentIndex i = rm.AddAgent(std::move(s));
  Cell cell(rm, i);
  RandomWalk walk(1.0);
  BehaviorEffects effects;
  SimContext ctx0(param, rm, 0, effects);
  walk.Run(cell, ctx0);
  Double3 f0 = cell.tractor_force();
  SimContext ctx1(param, rm, 1, effects);
  walk.Run(cell, ctx1);
  EXPECT_NE(cell.tractor_force(), f0);
}

TEST(RandomWalkTest, ReproducibleForSameUidAndStep) {
  Param param;
  ResourceManager rm1, rm2;
  rm1.AddAgent(NewAgentSpec{});
  rm2.AddAgent(NewAgentSpec{});
  Cell c1(rm1, 0), c2(rm2, 0);
  RandomWalk walk(1.0);
  BehaviorEffects effects;
  SimContext a(param, rm1, 5, effects), b(param, rm2, 5, effects);
  walk.Run(c1, a);
  walk.Run(c2, b);
  EXPECT_EQ(c1.tractor_force(), c2.tractor_force());
}

TEST(RandomWalkTest, DiffusesCellsInSimulation) {
  Param p;
  p.default_adherence = 0.0;
  p.max_bound = 2000.0;
  Simulation sim(p);
  for (int k = 0; k < 20; ++k) {
    AgentIndex i = sim.AddCell({1000, 1000, 1000}, 10.0);
    sim.rm().AttachBehavior(i, std::make_unique<RandomWalk>(100.0));
  }
  sim.Simulate(50);
  double mean_sq = 0.0;
  for (const auto& pos : sim.rm().positions()) {
    mean_sq += SquaredDistance(pos, {1000, 1000, 1000});
  }
  mean_sq /= static_cast<double>(sim.rm().size());
  EXPECT_GT(mean_sq, 1.0);  // cells actually spread out
}

TEST(ApoptosisTest, ZeroRateNeverKills) {
  Param p;
  Simulation sim(p);
  for (int k = 0; k < 50; ++k) {
    AgentIndex i = sim.AddCell({100.0 + k, 100, 100}, 8.0);
    sim.rm().AttachBehavior(i, std::make_unique<Apoptosis>(0.0));
  }
  sim.Simulate(20);
  EXPECT_EQ(sim.rm().size(), 50u);
}

TEST(ApoptosisTest, HugeRateKillsEveryoneInOneStep) {
  Param p;
  Simulation sim(p);
  for (int k = 0; k < 50; ++k) {
    AgentIndex i = sim.AddCell({100.0 + k, 100, 100}, 8.0);
    // rate*dt >= 1 -> certain death.
    sim.rm().AttachBehavior(
        i, std::make_unique<Apoptosis>(2.0 / p.simulation_time_step));
  }
  sim.Simulate(1);
  EXPECT_EQ(sim.rm().size(), 0u);
}

TEST(ApoptosisTest, PopulationDecaysAtRoughlyTheHazardRate) {
  Param p;
  p.random_seed = 123;
  Simulation sim(p);
  const size_t n0 = 2000;
  for (size_t k = 0; k < n0; ++k) {
    AgentIndex i = sim.AddCell(
        {10.0 + static_cast<double>(k % 50) * 19.0,
         10.0 + static_cast<double>(k / 50) * 19.0, 100.0},
        8.0);
    sim.rm().AttachBehavior(i, std::make_unique<Apoptosis>(5.0));
  }
  // 100 steps of dt=0.01 at hazard 5/h: survival = exp(-5) * adjustments for
  // the discrete scheme; expected ~ (1 - 0.05)^100 ~ 0.0059 * n0 ~ 12.
  sim.Simulate(100);
  double expected = static_cast<double>(n0) * std::pow(1.0 - 0.05, 100);
  EXPECT_GT(sim.rm().size(), 0u);
  EXPECT_LT(sim.rm().size(), 5 * static_cast<size_t>(expected) + 20);
}

TEST(BehaviorSharingTest, DaughterRunsTheMothersObjectsInOrder) {
  // Behaviors are immutable and shared: division copies the mother's
  // pointers, in order, and allocates no behavior object.
  Param p;
  ResourceManager rm;
  BehaviorEffects effects;
  SimContext ctx(p, rm, 0, effects);
  NewAgentSpec s;
  s.diameter = 12.0;
  AgentIndex i = rm.AddAgent(std::move(s));
  rm.AttachBehavior(i, std::make_unique<GrowDivide>(17.0, 1234.0));
  rm.AttachBehavior(i, std::make_unique<RandomWalk>(3.5));
  rm.AttachBehavior(i, std::make_unique<Apoptosis>(0.25));
  const std::vector<const Behavior*> mother = rm.behaviors_of(i);

  Cell(rm, i).Divide(ctx);
  testutil::CommitEffects(rm, effects);
  ASSERT_EQ(rm.size(), 2u);
  EXPECT_EQ(rm.behaviors_of(0), mother);
  EXPECT_EQ(rm.behaviors_of(1), mother);
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const GrowDivide*>(rm.behaviors_of(1)[0])->growth_rate(),
      1234.0);
}

TEST(BehaviorCloneTest, CopyToNewControlsInheritance) {
  Param p;
  ResourceManager rm;
  BehaviorEffects effects;
  SimContext ctx(p, rm, 0, effects);
  NewAgentSpec s;
  s.position = {100, 100, 100};
  s.diameter = 12.0;
  AgentIndex i = rm.AddAgent(std::move(s));
  auto inherited = std::make_unique<RandomWalk>(1.0);
  auto not_inherited = std::make_unique<Apoptosis>(0.1);
  not_inherited->copy_to_new = false;
  const Behavior* walk = inherited.get();
  rm.AttachBehavior(i, std::move(inherited));
  rm.AttachBehavior(i, std::move(not_inherited));

  Cell(rm, i).Divide(ctx);
  testutil::CommitEffects(rm, effects);
  ASSERT_EQ(rm.size(), 2u);
  EXPECT_EQ(rm.behaviors_of(0).size(), 2u);  // mother keeps both
  ASSERT_EQ(rm.behaviors_of(1).size(), 1u);  // daughter only the walk
  EXPECT_EQ(rm.behaviors_of(1)[0], walk);
}

TEST(BehaviorSharingTest, ObjectOutlivesEveryAgentThatRanIt) {
  // A death frees only the row's pointer vector; the manager keeps the
  // object, so a pointer taken before the deaths still reads its parameters
  // (ASan reports a use-after-free here if a death freed it).
  Param p;
  Simulation sim(p);
  AgentIndex i = sim.AddCell({100, 100, 100}, 12.0);
  sim.rm().AttachBehavior(i, std::make_unique<GrowDivide>(12.0, 10.0));
  sim.rm().AttachBehavior(
      i, std::make_unique<Apoptosis>(2.0 / p.simulation_time_step));
  const Behavior* grow = sim.rm().behaviors_of(i)[0];
  sim.Simulate(2);  // step 0: divides and dies; step 1: the daughter dies
  ASSERT_EQ(sim.rm().size(), 0u);
  EXPECT_STREQ(grow->name(), "GrowDivide");
  EXPECT_DOUBLE_EQ(dynamic_cast<const GrowDivide*>(grow)->growth_rate(), 10.0);
}

TEST(BehaviorSharingTest, ObjectsKeepTheirAddressAcrossAManagerMove) {
  ResourceManager rm;
  AgentIndex i = rm.AddAgent(NewAgentSpec{});
  rm.AttachBehavior(i, std::make_unique<RandomWalk>(2.5));
  const Behavior* walk = rm.behaviors_of(i)[0];

  ResourceManager moved(std::move(rm));
  ASSERT_EQ(moved.behaviors_of(0).size(), 1u);
  EXPECT_EQ(moved.behaviors_of(0)[0], walk);
  ResourceManager assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.behaviors_of(0)[0], walk);
  EXPECT_DOUBLE_EQ(dynamic_cast<const RandomWalk*>(walk)->speed(), 2.5);
}

TEST(SecretionTest, DepositsDeferToTheChunkBuffer) {
  // The determinism contract for behaviors (docs/determinism.md): writes to
  // the field go through SimContext::DepositSubstance, which appends them to
  // the context's effects buffer; Simulation applies the buffers after the
  // behaviors pass in row order.
  Param p;
  ResourceManager rm;
  DiffusionGrid grid("s", 0.0, 100.0, 4, 1.0, 0.0);
  BehaviorEffects effects;
  SimContext ctx(p, rm, 0, effects);
  ctx.diffusion_grid = &grid;

  NewAgentSpec s;
  s.position = {50, 50, 50};
  AgentIndex i = rm.AddAgent(std::move(s));
  Cell cell(rm, i);
  Secretion sec(5.0);
  sec.Run(cell, ctx);

  EXPECT_DOUBLE_EQ(grid.TotalAmount(), 0.0);  // deferred, not applied
  ASSERT_EQ(effects.deposits.size(), 1u);
  EXPECT_DOUBLE_EQ(effects.deposits[0].amount, 5.0 * p.simulation_time_step);
  EXPECT_EQ(effects.deposits[0].grid, &grid);
}

TEST(SecretionTest, SimulationAppliesEachDepositExactlyOncePerStep) {
  Param p;
  p.max_bound = 100.0;
  Simulation sim(p);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "s", 0.0, 100.0, 4, 1.0, /*decay_constant=*/0.0));
  AgentIndex i = sim.AddCell({50, 50, 50}, 10.0);
  sim.rm().AttachBehavior(i, std::make_unique<Secretion>(4.0));
  sim.Simulate(1);
  // Closed boundary, no decay: the total is exactly the one deposit.
  EXPECT_NEAR(sim.diffusion_grid()->TotalAmount(),
              4.0 * p.simulation_time_step, 1e-12);
  sim.Simulate(1);
  EXPECT_NEAR(sim.diffusion_grid()->TotalAmount(),
              2.0 * 4.0 * p.simulation_time_step, 1e-12);
}

TEST(SecretionTest, NoGridIsSafeNoop) {
  Param p;
  ResourceManager rm;
  BehaviorEffects effects;
  SimContext ctx(p, rm, 0, effects);  // no diffusion grid attached
  AgentIndex i = rm.AddAgent(NewAgentSpec{});
  Cell cell(rm, i);
  Secretion sec(5.0);
  sec.Run(cell, ctx);  // must not crash
  Chemotaxis chem(2.0);
  chem.Run(cell, ctx);
  EXPECT_EQ(cell.tractor_force(), (Double3{0, 0, 0}));
  EXPECT_TRUE(effects.deposits.empty());
}

}  // namespace
}  // namespace biosim
