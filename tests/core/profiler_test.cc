#include "core/profiler.h"

#include <gtest/gtest.h>

namespace biosim {
namespace {

TEST(OpProfileTest, AccumulatesByName) {
  OpProfile p;
  p.Add("mech", 10.0);
  p.Add("mech", 5.0);
  p.Add("grid", 3.0);
  EXPECT_DOUBLE_EQ(p.TotalMs("mech"), 15.0);
  EXPECT_DOUBLE_EQ(p.TotalMs("grid"), 3.0);
  EXPECT_DOUBLE_EQ(p.TotalMs("absent"), 0.0);
  EXPECT_DOUBLE_EQ(p.GrandTotalMs(), 18.0);
}

TEST(OpProfileTest, PreservesFirstSeenOrder) {
  OpProfile p;
  p.Add("b", 1.0);
  p.Add("a", 1.0);
  p.Add("b", 1.0);
  ASSERT_EQ(p.entries().size(), 2u);
  EXPECT_EQ(p.entries()[0].name, "b");
  EXPECT_EQ(p.entries()[1].name, "a");
  EXPECT_EQ(p.entries()[0].calls(), 2u);
}

TEST(OpProfileTest, ManyDistinctNamesStayConsistent) {
  // The hash index must agree with the first-seen-order storage even when
  // the entry count is large (the old implementation scanned linearly).
  OpProfile p;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; ++i) {
      p.Add("op_" + std::to_string(i), static_cast<double>(i));
    }
  }
  ASSERT_EQ(p.entries().size(), 200u);
  EXPECT_EQ(p.entries()[0].name, "op_0");
  EXPECT_EQ(p.entries()[199].name, "op_199");
  EXPECT_DOUBLE_EQ(p.TotalMs("op_7"), 21.0);
  EXPECT_EQ(p.Find("op_7")->calls(), 3u);
  EXPECT_EQ(p.Find("missing"), nullptr);
}

TEST(OpProfileTest, EntriesCarryLatencyDistribution) {
  OpProfile p;
  for (int i = 1; i <= 100; ++i) {
    p.Add("op", static_cast<double>(i));
  }
  const OpProfile::Entry* e = p.Find("op");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->calls(), 100u);
  EXPECT_DOUBLE_EQ(e->hist.max(), 100.0);
  EXPECT_DOUBLE_EQ(e->hist.min(), 1.0);
  // Log-bucketed percentiles: exact to within one geometric bucket (~7%).
  EXPECT_NEAR(e->hist.Percentile(0.5), 50.0, 50.0 * 0.1);
  EXPECT_NEAR(e->hist.Percentile(0.95), 95.0, 95.0 * 0.1);
}

TEST(OpProfileTest, HistSinkMatchesAdd) {
  // An entry's histogram sink and Add feed the same entry.
  OpProfile p;
  p.Get("op").hist.Add(2.0);
  p.Add("op", 3.0);
  EXPECT_DOUBLE_EQ(p.TotalMs("op"), 5.0);
  EXPECT_EQ(p.entries().size(), 1u);
}

TEST(OpProfileTest, ToStringContainsPercentages) {
  OpProfile p;
  p.Add("half1", 50.0);
  p.Add("half2", 50.0);
  std::string s = p.ToString();
  EXPECT_NE(s.find("half1"), std::string::npos);
  EXPECT_NE(s.find("50.00%"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
}

TEST(OpProfileTest, NestedStagesCountOnceInTheTotal) {
  // Sub-stages first recorded while a stage is open (the shard phases inside
  // "neighborhood update", the GPU's simulated rows inside "mechanical
  // forces") are part of their parent's time: TOTAL and the shares sum
  // top-level entries only, and nested rows print indented.
  OpProfile p;
  p.Add("commit", 2.0);
  p.OpenStage("neighborhood update").hist.Add(1600.0);
  p.Add("partition", 1000.0);
  p.Get("shard grids").hist.Add(500.0);
  p.CloseStage();
  p.Add("diffusion", 3.0);
  EXPECT_FALSE(p.Find("commit")->nested);
  EXPECT_FALSE(p.Find("neighborhood update")->nested);
  EXPECT_TRUE(p.Find("partition")->nested);
  EXPECT_TRUE(p.Find("shard grids")->nested);
  EXPECT_FALSE(p.Find("diffusion")->nested);
  EXPECT_EQ(p.Find("neighborhood update")->calls(), 1u);
  EXPECT_DOUBLE_EQ(p.GrandTotalMs(), 2.0 + 1600.0 + 3.0);
  const std::string s = p.ToString();
  EXPECT_NE(s.find("\n  partition "), std::string::npos) << s;
  EXPECT_NE(s.find("\nneighborhood update "), std::string::npos) << s;
}

TEST(OpProfileTest, ResetClears) {
  OpProfile p;
  p.Add("x", 1.0);
  p.Reset();
  EXPECT_TRUE(p.entries().empty());
  EXPECT_DOUBLE_EQ(p.GrandTotalMs(), 0.0);
}

}  // namespace
}  // namespace biosim
