#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "../test_util.h"
#include "core/profiler.h"
#include "obs/json.h"

namespace biosim::obs {
namespace {

TEST(MetricsRegistryTest, InstrumentsCreateOnFirstUseAndPersist) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("a/count");
  c->Add();
  c->Add(4);
  EXPECT_EQ(reg.GetCounter("a/count"), c);  // same instrument, same pointer
  EXPECT_EQ(c->value(), 5u);

  reg.GetGauge("a/gauge")->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("a/gauge")->value(), 2.5);

  Histogram* h = reg.GetHistogram("a/hist");
  h->Add(1.0);
  h->Add(3.0);
  EXPECT_EQ(reg.GetHistogram("a/hist")->count(), 2u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, MergeAddsCounters) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("x")->Set(10);
  b.GetCounter("x")->Set(7);
  b.GetCounter("only_b")->Set(3);
  a.Merge(b);
  EXPECT_EQ(a.GetCounter("x")->value(), 17u);
  EXPECT_EQ(a.GetCounter("only_b")->value(), 3u);
}

TEST(MetricsRegistryTest, MergeOverwritesGaugesOnlyWhenSourceSetThem) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetGauge("g")->Set(1.0);
  b.GetGauge("g");  // created but never set
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.GetGauge("g")->value(), 1.0);  // untouched

  b.GetGauge("g")->Set(9.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.GetGauge("g")->value(), 9.0);  // overwritten
}

TEST(MetricsRegistryTest, MergeCombinesHistogramDistributions) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetHistogram("h")->Add(1.0);
  b.GetHistogram("h")->Add(100.0);
  a.Merge(b);
  EXPECT_EQ(a.GetHistogram("h")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.GetHistogram("h")->min(), 1.0);
  EXPECT_DOUBLE_EQ(a.GetHistogram("h")->max(), 100.0);
  EXPECT_DOUBLE_EQ(a.GetHistogram("h")->sum(), 101.0);
}

TEST(MetricsRegistryTest, ToJsonGroupsByKind) {
  MetricsRegistry reg;
  reg.GetCounter("steps")->Set(3);
  reg.GetGauge("ratio")->Set(0.5);
  reg.GetHistogram("lat")->Add(2.0);

  json::Value v = reg.ToJson();
  ASSERT_NE(v.Find("counters"), nullptr);
  ASSERT_NE(v.Find("gauges"), nullptr);
  ASSERT_NE(v.Find("histograms"), nullptr);
  EXPECT_DOUBLE_EQ(v.Find("counters")->Find("steps")->AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(v.Find("gauges")->Find("ratio")->AsDouble(), 0.5);
  const json::Value* h = v.Find("histograms")->Find("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Find("count")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(h->Find("sum")->AsDouble(), 2.0);
  ASSERT_NE(h->Find("p50"), nullptr);
  ASSERT_NE(h->Find("p95"), nullptr);
}

TEST(MetricsRegistryTest, CollectOpProfileExportsHistogramsAndCalls) {
  OpProfile profile;
  profile.Add("forces", 2.0);
  profile.Add("forces", 4.0);
  MetricsRegistry reg;
  CollectOpProfile(profile, &reg);
  EXPECT_EQ(reg.GetCounter("op/forces/calls")->value(), 2u);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("op/forces/ms")->sum(), 6.0);
}

TEST(MetricsRegistryTest, CollectRuntimeReportsThreads) {
  MetricsRegistry reg;
  CollectRuntime(&reg);
  EXPECT_GE(reg.GetGauge("runtime/hardware_threads")->value(), 1.0);
}

TEST(MetricsJsonlWriterTest, EmitsOneParseableObjectPerSnapshot) {
  std::string path = testutil::TempPath("metrics.jsonl");
  {
    MetricsJsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    MetricsRegistry reg;
    reg.GetCounter("steps")->Set(1);
    ASSERT_TRUE(writer.WriteSnapshot(1, reg));
    reg.GetCounter("steps")->Set(2);
    ASSERT_TRUE(writer.WriteSnapshot(2, reg));
  }
  std::ifstream in(path);
  std::string line;
  uint64_t expect_step = 1;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string error;
    auto v = json::Parse(line, &error);
    ASSERT_NE(v, nullptr) << error << " in: " << line;
    ASSERT_NE(v->Find("step"), nullptr);
    EXPECT_EQ(static_cast<uint64_t>(v->Find("step")->AsDouble()),
              expect_step++);
    EXPECT_NE(v->Find("counters"), nullptr);
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace biosim::obs
