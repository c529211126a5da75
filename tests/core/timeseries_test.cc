#include "core/timeseries.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../test_util.h"
#include "core/simulation.h"

namespace biosim {
namespace {

TEST(TimeSeriesTest, RecordsRegisteredMetricsEachInterval) {
  Param p;
  Simulation sim(p);
  sim.CreateRandomCells(20, 10.0);

  TimeSeriesRecorder rec(/*interval=*/2);
  rec.AddMetric("population", metrics::PopulationSize);
  rec.AddMetric("mean_d", metrics::MeanDiameter);

  for (int s = 0; s < 6; ++s) {
    rec.Record(sim);  // steps 0,1,2,3,4,5: records at 0,2,4
    sim.Simulate(1);
  }
  ASSERT_EQ(rec.num_rows(), 3u);
  EXPECT_EQ(rec.steps(), (std::vector<uint64_t>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(rec.At(0, "population"), 20.0);
  EXPECT_DOUBLE_EQ(rec.At(0, "mean_d"), 10.0);
}

TEST(TimeSeriesTest, ColumnExtraction) {
  Param p;
  Simulation sim(p);
  sim.CreateRandomCells(5, 8.0);
  TimeSeriesRecorder rec;
  rec.AddMetric("volume", metrics::TotalVolume);
  rec.Record(sim);
  sim.Simulate(1);
  rec.Record(sim);
  auto col = rec.Column("volume");
  ASSERT_EQ(col.size(), 2u);
  EXPECT_NEAR(col[0], 5.0 * math::SphereVolume(8.0), 1e-9);
}

TEST(TimeSeriesTest, RejectsDuplicateAndUnknownNames) {
  TimeSeriesRecorder rec;
  rec.AddMetric("x", metrics::PopulationSize);
  EXPECT_THROW(rec.AddMetric("x", metrics::PopulationSize),
               std::invalid_argument);
  EXPECT_THROW(rec.Column("nope"), std::out_of_range);
}

TEST(TimeSeriesTest, CustomMetricSeesSimulationState) {
  Param p;
  Simulation sim(p);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", 0.0, 1000.0, 8, 10.0, 0.0));
  sim.diffusion_grid()->IncreaseConcentrationBy({500, 500, 500}, 42.0);
  TimeSeriesRecorder rec;
  rec.AddMetric("oxygen_total", [](Simulation& s) {
    return s.diffusion_grid()->TotalAmount();
  });
  rec.Record(sim);
  EXPECT_NEAR(rec.At(0, "oxygen_total"), 42.0, 1e-9);
}

TEST(TimeSeriesTest, CsvOutput) {
  Param p;
  Simulation sim(p);
  sim.CreateRandomCells(3, 10.0);
  TimeSeriesRecorder rec;
  rec.AddMetric("population", metrics::PopulationSize);
  rec.Record(sim);
  std::string path = testutil::TempPath("ts.csv");
  ASSERT_TRUE(rec.WriteCsv(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("step,population"), std::string::npos);
  EXPECT_NE(ss.str().find("0,3"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(rec.WriteCsv("/nonexistent_dir_xyz/ts.csv"));
}

TEST(TimeSeriesTest, GrowthCurveOfDivisionModel) {
  Param p;
  Simulation sim(p);
  sim.Create3DCellGrid(3, 20.0, 8.0, 16.0, 120000.0);
  TimeSeriesRecorder rec;
  rec.AddMetric("population", metrics::PopulationSize);
  rec.AddMetric("extent", metrics::BoundingBoxVolume);
  for (int s = 0; s < 10; ++s) {
    rec.Record(sim);
    sim.Simulate(1);
  }
  auto pop = rec.Column("population");
  EXPECT_GT(pop.back(), pop.front());           // growth
  auto ext = rec.Column("extent");
  EXPECT_GT(ext.back(), ext.front());           // tissue expands
  // Monotone non-decreasing population (no death in this model).
  for (size_t i = 1; i < pop.size(); ++i) {
    EXPECT_GE(pop[i], pop[i - 1]);
  }
}

}  // namespace
}  // namespace biosim
