#include "app/config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

namespace biosim::app {
namespace {

TEST(ConfigTest, EmptyTextGivesDefaults) {
  RunConfig cfg = ParseConfigString("");
  EXPECT_EQ(cfg.steps, 10u);
  EXPECT_EQ(cfg.model_type, "cell_division");
  EXPECT_EQ(cfg.backend_type, "cpu");
}

TEST(ConfigTest, ParsesAllSections) {
  RunConfig cfg = ParseConfigString(R"(
[simulation]
steps = 123
seed = 9
max_bound = 500
timestep = 0.02
max_displacement = 1.5

[model]
type = random_cloud
agents = 777
density = 13
diameter = 12

[backend]
type = gpu
gpu_version = 3
gpu_device = v100
meter_stride = 4

[output]
timeseries = ts.csv
vtk = out.vtk
csv = out.csv
checkpoint = out.ckpt
)");
  EXPECT_EQ(cfg.steps, 123u);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.max_bound, 500.0);
  EXPECT_DOUBLE_EQ(cfg.timestep, 0.02);
  EXPECT_DOUBLE_EQ(cfg.max_displacement, 1.5);
  EXPECT_EQ(cfg.model_type, "random_cloud");
  EXPECT_EQ(cfg.agents, 777u);
  EXPECT_DOUBLE_EQ(cfg.density, 13.0);
  EXPECT_DOUBLE_EQ(cfg.diameter, 12.0);
  EXPECT_EQ(cfg.backend_type, "gpu");
  EXPECT_EQ(cfg.gpu_version, 3);
  EXPECT_EQ(cfg.gpu_device, "v100");
  EXPECT_EQ(cfg.meter_stride, 4);
  EXPECT_EQ(cfg.timeseries_path, "ts.csv");
  EXPECT_EQ(cfg.vtk_path, "out.vtk");
  EXPECT_EQ(cfg.csv_path, "out.csv");
  EXPECT_EQ(cfg.checkpoint_path, "out.ckpt");
}

TEST(ConfigTest, CommentsAndWhitespaceIgnored) {
  RunConfig cfg = ParseConfigString(R"(
# full-line hash comment
; full-line semicolon comment
[simulation]
  steps   =   55   ; trailing comment
)");
  EXPECT_EQ(cfg.steps, 55u);
}

TEST(ConfigTest, UnknownSectionFailsWithLineNumber) {
  try {
    ParseConfigString("[nonsense]\nx = 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nonsense"), std::string::npos);
  }
}

TEST(ConfigTest, UnknownKeyFails) {
  EXPECT_THROW(ParseConfigString("[simulation]\nstepz = 5\n"),
               std::runtime_error);
  // Settings that no longer exist fail as loudly as typos, naming the key.
  const std::pair<std::string, std::string> removed[] = {
      {"overlap_ops", "true"},
      {"precision", "fp32"},
      {"incremental_grid", "false"}};
  for (const auto& [key, value] : removed) {
    try {
      ParseConfigString("[simulation]\n" + key + " = " + value + "\n");
      ADD_FAILURE() << "accepted removed key " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigTest, KeyOutsideSectionFails) {
  EXPECT_THROW(ParseConfigString("steps = 5\n"), std::runtime_error);
}

TEST(ConfigTest, MalformedNumberFails) {
  EXPECT_THROW(ParseConfigString("[simulation]\nsteps = five\n"),
               std::runtime_error);
  EXPECT_THROW(ParseConfigString("[simulation]\nsteps = 1.5\n"),
               std::runtime_error);  // integer key
}

TEST(ConfigTest, MissingEqualsFails) {
  EXPECT_THROW(ParseConfigString("[simulation]\nsteps 5\n"),
               std::runtime_error);
}

TEST(ConfigTest, BoundaryModes) {
  EXPECT_EQ(ParseConfigString("[simulation]\nboundary = torus\n").boundary,
            "torus");
  EXPECT_THROW(ParseConfigString("[simulation]\nboundary = moebius\n"),
               std::invalid_argument);
  // Torus + GPU is rejected at validation.
  EXPECT_THROW(ParseConfigString(
                   "[simulation]\nboundary = torus\n[backend]\ntype = gpu\n"),
               std::invalid_argument);
}

TEST(ConfigTest, SanitizeFlagParsesAndRequiresGpu) {
  RunConfig cfg = ParseConfigString(
      "[backend]\ntype = gpu\nsanitize = true\n");
  EXPECT_TRUE(cfg.sanitize);
  EXPECT_FALSE(ParseConfigString("[backend]\ntype = gpu\n").sanitize);
  // The sanitizer observes the simulated device: CPU runs reject it.
  EXPECT_THROW(ParseConfigString("[backend]\nsanitize = true\n"),
               std::invalid_argument);
  EXPECT_THROW(
      ParseConfigString("[backend]\ntype = gpu\nsanitize = maybe\n"),
      std::runtime_error);
}

TEST(ConfigTest, ParallelBlocksAndRacyGridBuildParseAndRequireGpu) {
  RunConfig cfg = ParseConfigString(
      "[backend]\ntype = gpu\nparallel_blocks = true\n"
      "racy_grid_build = true\n");
  EXPECT_TRUE(cfg.parallel_blocks);
  EXPECT_TRUE(cfg.racy_grid_build);
  EXPECT_FALSE(ParseConfigString("[backend]\ntype = gpu\n").parallel_blocks);
  EXPECT_FALSE(ParseConfigString("[backend]\ntype = gpu\n").racy_grid_build);
  // Both knobs configure the simulated device: CPU runs reject them.
  EXPECT_THROW(ParseConfigString("[backend]\nparallel_blocks = true\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[backend]\nracy_grid_build = true\n"),
               std::invalid_argument);
}

TEST(ConfigTest, SimdKeyParsesAndValidates) {
  RunConfig cfg = ParseConfigString("[simulation]\nsimd = true\n");
  EXPECT_TRUE(cfg.simd);
  EXPECT_FALSE(ParseConfigString("").simd);
  // simd vectorizes the *CPU* fused kernel: the GPU ladder has its own
  // FP32 versions, and without the fused path there is nothing to
  // vectorize.
  EXPECT_THROW(ParseConfigString(
                   "[simulation]\nsimd = true\n[backend]\ntype = gpu\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString(
                   "[simulation]\nsimd = true\ncpu_fast_path = false\n"),
               std::invalid_argument);
}

TEST(ConfigTest, SchedulerKnobsParseAndValidate) {
  RunConfig cfg = ParseConfigString("[simulation]\nzorder_every = 5\n");
  EXPECT_EQ(cfg.zorder_every, 5u);
  // Default: no periodic re-sort.
  EXPECT_EQ(ParseConfigString("").zorder_every, 0u);
}

TEST(ConfigTest, ShardKeysParseAndValidate) {
  RunConfig cfg = ParseConfigString(
      "[simulation]\nshards = 4\nshard_balance = adaptive\n");
  EXPECT_EQ(cfg.shards, 4u);
  EXPECT_EQ(cfg.shard_balance, "adaptive");
  // Defaults: unsharded, static plane split.
  EXPECT_EQ(ParseConfigString("").shards, 0u);
  EXPECT_EQ(ParseConfigString("").shard_balance, "static");
  // The only balance modes the partitioner implements.
  EXPECT_THROW(
      ParseConfigString("[simulation]\nshards = 2\nshard_balance = magic\n"),
      std::invalid_argument);
  // Sharding drives the fused CSR kernel per shard on the host: the GPU
  // backend and the non-fused path have no sharded pipeline.
  EXPECT_THROW(ParseConfigString(
                   "[simulation]\nshards = 2\n[backend]\ntype = gpu\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString(
                   "[simulation]\nshards = 2\ncpu_fast_path = false\n"),
               std::invalid_argument);
}

TEST(ConfigTest, SubstanceKeysParseAndValidate) {
  RunConfig cfg = ParseConfigString(R"(
[model]
substance_resolution = 24
substance_diffusion = 80
substance_decay = 0.05
secretion_rate = 0.5
)");
  EXPECT_EQ(cfg.substance_resolution, 24u);
  EXPECT_DOUBLE_EQ(cfg.substance_diffusion, 80.0);
  EXPECT_DOUBLE_EQ(cfg.substance_decay, 0.05);
  EXPECT_DOUBLE_EQ(cfg.secretion_rate, 0.5);
  EXPECT_EQ(ParseConfigString("").substance_resolution, 0u);
  // A 1-voxel field cannot diffuse; 0 means "no substance".
  EXPECT_THROW(ParseConfigString("[model]\nsubstance_resolution = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString(
                   "[model]\nsubstance_resolution = 8\n"
                   "substance_diffusion = -1\n"),
               std::invalid_argument);
  // Secretion without a field to receive it is a config mistake, not a
  // silent no-op.
  EXPECT_THROW(ParseConfigString("[model]\nsecretion_rate = 0.5\n"),
               std::invalid_argument);
}

TEST(ConfigTest, ValidationRejectsBadEnumValues) {
  EXPECT_THROW(ParseConfigString("[model]\ntype = banana\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[backend]\ntype = fpga\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[backend]\ngpu_version = 9\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[backend]\ngpu_device = 2080ti\n"),
               std::invalid_argument);
}

TEST(ConfigTest, ObservabilityOutputKeysParse) {
  RunConfig cfg = ParseConfigString(R"(
[output]
trace = trace.json
metrics = metrics.jsonl
metrics_every = 5
report = report.json
)");
  EXPECT_EQ(cfg.trace_path, "trace.json");
  EXPECT_EQ(cfg.metrics_path, "metrics.jsonl");
  EXPECT_EQ(cfg.metrics_every, 5u);
  EXPECT_EQ(cfg.report_path, "report.json");
  // Defaults: observability off, every-step snapshots when enabled.
  RunConfig defaults = ParseConfigString("");
  EXPECT_TRUE(defaults.trace_path.empty());
  EXPECT_TRUE(defaults.metrics_path.empty());
  EXPECT_EQ(defaults.metrics_every, 1u);
  EXPECT_TRUE(defaults.report_path.empty());
  // A zero snapshot interval would never emit anything: rejected.
  EXPECT_THROW(ParseConfigString("[output]\nmetrics_every = 0\n"),
               std::invalid_argument);
}

TEST(ConfigTest, FileRoundTrip) {
  std::string path = std::string(::testing::TempDir()) + "/cfg.ini";
  {
    std::ofstream out(path);
    out << "[simulation]\nsteps = 77\n";
  }
  RunConfig cfg = ParseConfigFile(path);
  EXPECT_EQ(cfg.steps, 77u);
  std::remove(path.c_str());
  EXPECT_THROW(ParseConfigFile("/nonexistent_xyz.ini"), std::runtime_error);
}

TEST(ConfigTest, ShippedExampleConfigsParse) {
  // The configs under examples/configs must stay valid.
  EXPECT_NO_THROW(ParseConfigFile(std::string(BIOSIM_SOURCE_DIR) +
                                  "/examples/configs/cell_division.ini"));
  EXPECT_NO_THROW(ParseConfigFile(std::string(BIOSIM_SOURCE_DIR) +
                                  "/examples/configs/gpu_random_cloud.ini"));
  EXPECT_NO_THROW(ParseConfigFile(std::string(BIOSIM_SOURCE_DIR) +
                                  "/examples/configs/steady_cloud.ini"));
}

}  // namespace
}  // namespace biosim::app
