#include "core/cell.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/behaviors/grow_divide.h"
#include "core/sim_context.h"

namespace biosim {
namespace {

class CellTest : public ::testing::Test {
 protected:
  CellTest() : ctx_(param_, rm_, /*step=*/0, effects_) {}

  AgentIndex MakeCell(double diameter = 10.0) {
    NewAgentSpec s;
    s.position = {50.0, 50.0, 50.0};
    s.diameter = diameter;
    s.adherence = 0.4;
    s.density = 1.0;
    return rm_.AddAgent(std::move(s));
  }

  void Commit() { testutil::CommitEffects(rm_, effects_); }

  Param param_;
  ResourceManager rm_;
  BehaviorEffects effects_;
  SimContext ctx_;
};

TEST_F(CellTest, AccessorsReadThroughToSoA) {
  AgentIndex i = MakeCell(10.0);
  Cell c(rm_, i);
  EXPECT_DOUBLE_EQ(c.diameter(), 10.0);
  EXPECT_DOUBLE_EQ(c.radius(), 5.0);
  EXPECT_NEAR(c.volume(), math::SphereVolume(10.0), 1e-12);
  EXPECT_NEAR(c.mass(), c.density() * c.volume(), 1e-12);
  c.SetPosition({1.0, 2.0, 3.0});
  EXPECT_EQ(rm_.positions()[i], (Double3{1.0, 2.0, 3.0}));
}

TEST_F(CellTest, SetDiameterUpdatesVolume) {
  Cell c(rm_, MakeCell(10.0));
  c.SetDiameter(20.0);
  EXPECT_NEAR(c.volume(), math::SphereVolume(20.0), 1e-9);
}

TEST_F(CellTest, ChangeVolumeUpdatesDiameter) {
  Cell c(rm_, MakeCell(10.0));
  double v0 = c.volume();
  c.ChangeVolume(100.0);
  EXPECT_NEAR(c.volume(), v0 + 100.0, 1e-9);
  EXPECT_NEAR(c.diameter(), math::SphereDiameter(v0 + 100.0), 1e-9);
}

TEST_F(CellTest, ChangeVolumeClampsAtZero) {
  Cell c(rm_, MakeCell(1.0));
  c.ChangeVolume(-1e9);
  EXPECT_GT(c.volume(), 0.0);
  EXPECT_GT(c.diameter(), 0.0);
}

TEST_F(CellTest, DivideConservesVolume) {
  AgentIndex i = MakeCell(12.0);
  double v0 = rm_.volumes()[i];
  Cell c(rm_, i);
  c.Divide(ctx_);
  Commit();
  ASSERT_EQ(rm_.size(), 2u);
  EXPECT_NEAR(rm_.volumes()[0] + rm_.volumes()[1], v0, 1e-9);
}

TEST_F(CellTest, DivideRatioWithinCortexRange) {
  AgentIndex i = MakeCell(12.0);
  Cell c(rm_, i);
  c.Divide(ctx_);
  Commit();
  double ratio = rm_.volumes()[1] / rm_.volumes()[0];
  EXPECT_GE(ratio, 0.9 - 1e-9);
  EXPECT_LE(ratio, 1.1 + 1e-9);
}

TEST_F(CellTest, DivideAlongAxisPreservesCenterOfMass) {
  AgentIndex i = MakeCell(12.0);
  Double3 p0 = rm_.positions()[i];
  Cell c(rm_, i);
  c.Divide(ctx_, {1.0, 0.0, 0.0});
  Commit();
  double vm = rm_.volumes()[0];
  double vd = rm_.volumes()[1];
  Double3 com =
      (rm_.positions()[0] * vm + rm_.positions()[1] * vd) / (vm + vd);
  EXPECT_NEAR(com.x, p0.x, 1e-9);
  EXPECT_NEAR(com.y, p0.y, 1e-9);
  EXPECT_NEAR(com.z, p0.z, 1e-9);
}

TEST_F(CellTest, DivideDaughterTouchesMother) {
  AgentIndex i = MakeCell(12.0);
  Cell c(rm_, i);
  c.Divide(ctx_, {0.0, 0.0, 1.0});
  Commit();
  double dist = Distance(rm_.positions()[0], rm_.positions()[1]);
  double r_sum = (rm_.diameters()[0] + rm_.diameters()[1]) / 2.0;
  EXPECT_NEAR(dist, r_sum, 1e-9);
}

TEST_F(CellTest, DivideInheritsAttributesAndBehaviors) {
  AgentIndex i = MakeCell(12.0);
  rm_.adherences()[i] = 0.77;
  rm_.densities()[i] = 1.3;
  rm_.AttachBehavior(i, std::make_unique<GrowDivide>(30.0, 5000.0));
  Cell c(rm_, i);
  c.Divide(ctx_);
  Commit();
  EXPECT_DOUBLE_EQ(rm_.adherences()[1], 0.77);
  EXPECT_DOUBLE_EQ(rm_.densities()[1], 1.3);
  ASSERT_EQ(rm_.behaviors_of(1).size(), 1u);
  EXPECT_EQ(rm_.behaviors_of(1)[0], rm_.behaviors_of(0)[0]);  // shared
  auto* gd = dynamic_cast<const GrowDivide*>(rm_.behaviors_of(1)[0]);
  ASSERT_NE(gd, nullptr);
  EXPECT_DOUBLE_EQ(gd->threshold_diameter(), 30.0);
}

TEST_F(CellTest, DivideIsDeterministicPerUidAndStep) {
  // Two runs with identical setup must produce identical daughters.
  ResourceManager rm2;
  NewAgentSpec s;
  s.position = {50.0, 50.0, 50.0};
  s.diameter = 12.0;
  rm2.AddAgent(std::move(s));
  BehaviorEffects effects2;
  SimContext ctx2(param_, rm2, 0, effects2);

  AgentIndex i = MakeCell(12.0);
  Cell(rm_, i).Divide(ctx_);
  Cell(rm2, 0).Divide(ctx2);
  Commit();
  testutil::CommitEffects(rm2, effects2);
  EXPECT_EQ(rm_.positions()[1], rm2.positions()[1]);
  EXPECT_DOUBLE_EQ(rm_.volumes()[1], rm2.volumes()[1]);
}

TEST_F(CellTest, RemoveFromSimulation) {
  AgentIndex i = MakeCell();
  Cell c(rm_, i);
  c.RemoveFromSimulation(ctx_);
  EXPECT_EQ(rm_.size(), 1u);
  EXPECT_EQ(effects_.removals, std::vector<AgentIndex>{i});
  Commit();
  EXPECT_EQ(rm_.size(), 0u);
}

TEST_F(CellTest, GrowDivideGrowsBelowThreshold) {
  AgentIndex i = MakeCell(8.0);
  Cell c(rm_, i);
  GrowDivide gd(/*threshold=*/20.0, /*rate=*/3000.0);
  double v0 = c.volume();
  gd.Run(c, ctx_);
  EXPECT_NEAR(c.volume(), v0 + 3000.0 * param_.simulation_time_step, 1e-9);
  EXPECT_TRUE(effects_.births.empty());  // no division yet
}

TEST_F(CellTest, GrowDivideDividesAtThreshold) {
  AgentIndex i = MakeCell(20.0);
  Cell c(rm_, i);
  GrowDivide gd(/*threshold=*/20.0, /*rate=*/3000.0);
  gd.Run(c, ctx_);
  Commit();
  EXPECT_EQ(rm_.size(), 2u);
}

}  // namespace
}  // namespace biosim
