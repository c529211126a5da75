#include "app/config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

#include "../test_util.h"

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
  // gpusim picks its block chunks from the worker count, so the GPU
  // backend's parallel_blocks switch is gone too.
  struct Removed {
    std::string section, key, value;
  };
  const Removed removed[] = {{"simulation", "overlap_ops", "true"},
                             {"simulation", "precision", "fp32"},
                             {"simulation", "incremental_grid", "false"},
                             {"simulation", "simd", "true"},
                             {"simulation", "cpu_fast_path", "false"},
                             {"simulation", "zorder_every", "5"},
                             {"backend", "parallel_blocks", "true"}};
  for (const auto& [section, key, value] : removed) {
    try {
      ParseConfigString("[" + section + "]\n" + key + " = " + value + "\n");
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

TEST(ConfigTest, NonFiniteNumbersFailNamingTheKey) {
  const std::pair<const char*, const char*> keys[] = {
      {"simulation", "max_bound"},
      {"simulation", "timestep"},
      {"simulation", "max_displacement"},
      {"model", "density"},
      {"model", "diameter"},
      {"model", "divide_threshold"},
      {"model", "growth_rate"},
      {"model", "substance_diffusion"},
      {"model", "substance_decay"},
      {"model", "secretion_rate"}};
  for (const auto& [section, key] : keys) {
    // 1e999 overflows to inf inside strtod.
    for (const char* value : {"nan", "inf", "-inf", "NAN", "infinity",
                              "1e999"}) {
      const std::string text = std::string("[") + section + "]\n" + key +
                               " = " + value + "\n";
      try {
        ParseConfigString(text);
        ADD_FAILURE() << "accepted " << key << " = " << value;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("line 2: ") + key),
                  std::string::npos)
            << e.what();
      }
    }
  }
  RunConfig cfg;
  EXPECT_THROW(SetConfigValue(&cfg, "simulation", "timestep", "inf",
                              "--timestep"),
               std::invalid_argument);
  EXPECT_THROW(ToDouble("nan", "--x"), std::invalid_argument);
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
  // Torus + GPU parses; BuildSimulation rejects the pairing
  // (RunnerTest.BuildRejectsCrossKeyCombinations).
  EXPECT_NO_THROW(ParseConfigString(
      "[simulation]\nboundary = torus\n[backend]\ntype = gpu\n"));
}

TEST(ConfigTest, SanitizeFlagParsesAndRequiresGpu) {
  RunConfig cfg = ParseConfigString(
      "[backend]\ntype = gpu\nsanitize = true\n");
  EXPECT_TRUE(cfg.sanitize);
  EXPECT_FALSE(ParseConfigString("[backend]\ntype = gpu\n").sanitize);
  // sanitize on the CPU backend parses; BuildSimulation rejects the pairing
  // (RunnerTest.BuildRejectsCrossKeyCombinations).
  EXPECT_NO_THROW(ParseConfigString("[backend]\nsanitize = true\n"));
  EXPECT_THROW(
      ParseConfigString("[backend]\ntype = gpu\nsanitize = maybe\n"),
      std::runtime_error);
}

TEST(ConfigTest, RacyGridBuildParsesAndRequiresGpu) {
  RunConfig cfg = ParseConfigString(
      "[backend]\ntype = gpu\nracy_grid_build = true\n");
  EXPECT_TRUE(cfg.racy_grid_build);
  EXPECT_FALSE(ParseConfigString("[backend]\ntype = gpu\n").racy_grid_build);
  // On the CPU backend it parses; BuildSimulation rejects the pairing.
  EXPECT_NO_THROW(ParseConfigString("[backend]\nracy_grid_build = true\n"));
  EXPECT_THROW(ParseConfigString("[backend]\nracy_grid_build = maybe\n"),
               std::runtime_error);
}

TEST(ConfigTest, SchedulerKnobsParseAndValidate) {
  // The worker count is the scheduling knob left (the row-sort cadence
  // zorder_every is gone; UnknownKeyFails covers it).
  RunConfig cfg = ParseConfigString("[simulation]\nthreads = 3\n");
  EXPECT_EQ(cfg.num_threads, 3u);
  // Default: hardware concurrency.
  EXPECT_EQ(ParseConfigString("").num_threads, 0u);
  EXPECT_THROW(ParseConfigString("[simulation]\nthreads = many\n"),
               std::runtime_error);
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
  // Shards + GPU parses; BuildSimulation rejects the pairing.
  EXPECT_NO_THROW(ParseConfigString(
      "[simulation]\nshards = 2\n[backend]\ntype = gpu\n"));
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
  EXPECT_THROW(ParseConfigString(
                   "[model]\nsubstance_resolution = 8\n"
                   "substance_diffusion = -1\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[model]\nsubstance_decay = -0.1\n"),
               std::invalid_argument);
  // A 1-voxel field and secretion without a field parse; DiffusionGrid and
  // BuildSimulation reject them.
  EXPECT_NO_THROW(ParseConfigString("[model]\nsubstance_resolution = 1\n"));
  EXPECT_NO_THROW(ParseConfigString("[model]\nsecretion_rate = 0.5\n"));
}

TEST(ConfigTest, ValidationRejectsBadEnumValues) {
  EXPECT_THROW(ParseConfigString("[model]\ntype = banana\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[backend]\ntype = fpga\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[backend]\ngpu_device = 2080ti\n"),
               std::invalid_argument);
  // An enum key is rejected while parsing, naming its line and key.
  try {
    ParseConfigString("[simulation]\nsteps = 1\nshard_balance = magic\n");
    FAIL() << "accepted shard_balance = magic";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: shard_balance"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigTest, IntegerKeysRangeCheckTheirTargetType) {
  // Values past a key's integer type used to be narrowed silently
  // (threads = 4294967297 became 1, shards = 4294967298 became 2).
  struct Case {
    std::string section, key, value;
  };
  const Case cases[] = {{"simulation", "threads", "4294967297"},
                        {"simulation", "shards", "4294967298"},
                        {"backend", "gpu_version", "2147483648"},
                        {"backend", "meter_stride", "1e12"},
                        {"simulation", "steps", "1e30"},
                        {"simulation", "steps", "-1"},
                        // Integers are decimal digits, parsed exactly: no
                        // hex, exponent, fraction or sign, and no value past
                        // the type.
                        {"simulation", "steps", "0x10"},
                        {"model", "agents", "1e3"},
                        {"simulation", "threads", "2.0"},
                        {"simulation", "seed", "+5"},
                        {"simulation", "seed", "18446744073709551616"}};
  for (const auto& [section, key, value] : cases) {
    try {
      ParseConfigString("[" + section + "]\n" + key + " = " + value + "\n");
      ADD_FAILURE() << "accepted " << key << " = " << value;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: " + key), std::string::npos)
          << e.what();
    }
  }
  // The largest value of the target type still parses, and every 64-bit
  // seed is exact, 2^53 + 1 included.
  EXPECT_EQ(ParseConfigString("[simulation]\nshards = 4294967295\n").shards,
            4294967295u);
  EXPECT_EQ(
      ParseConfigString("[simulation]\nseed = 18446744073709551615\n").seed,
      18446744073709551615u);
  EXPECT_EQ(ParseConfigString("[simulation]\nseed = 9007199254740993\n").seed,
            9007199254740993u);
  // The message names the range the parser accepts: a count starts at 1.
  auto message = [](auto parse, const std::string& v) {
    try {
      parse(v, "--steps");
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(ToInt<uint64_t>, "18446744073709551616"),
            "--steps must be an integer in 0..18446744073709551615, got "
            "'18446744073709551616'");
  EXPECT_EQ(message(ToCount<uint64_t>, "five"),
            "--steps must be an integer in 1..18446744073709551615, got "
            "'five'");
  EXPECT_THROW(ToCount<int>("0", "--reps"), std::invalid_argument);
  EXPECT_THROW(ParseConfigString("[model]\ncells_per_dim = 0\n"),
               std::invalid_argument);
  // agents sizes the random cloud's cube (BuildSimulation derives
  // max_bound from it), so 0 fails here, naming the key the user set.
  try {
    ParseConfigString("[model]\ntype = random_cloud\nagents = 0\n");
    ADD_FAILURE() << "accepted agents = 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: agents"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigTest, SetConfigValueChecksLikeTheFileAndNamesTheSource) {
  RunConfig cfg;
  SetConfigValue(&cfg, "simulation", "shards", "3", "--shards");
  EXPECT_EQ(cfg.shards, 3u);
  SetConfigValue(&cfg, "backend", "type", "gpu", "--backend");
  EXPECT_EQ(cfg.backend_type, "gpu");
  struct Case {
    const char *section, *key, *value, *source;
  };
  const Case bad[] = {{"simulation", "shards", "abc", "--shards"},
                      {"simulation", "steps", "five", "--steps"},
                      {"simulation", "threads", "4294967297", "BIOSIM_THREADS"},
                      {"backend", "type", "fpga", "--backend"},
                      {"output", "metrics_every", "0", "--metrics-every"}};
  for (const Case& c : bad) {
    try {
      SetConfigValue(&cfg, c.section, c.key, c.value, c.source);
      ADD_FAILURE() << "accepted " << c.source << " " << c.value;
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind(c.source, 0), 0u) << e.what();
    }
  }
  // A failed set leaves the earlier values alone.
  EXPECT_EQ(cfg.shards, 3u);
  EXPECT_EQ(cfg.backend_type, "gpu");
  EXPECT_THROW(SetConfigValue(&cfg, "simulation", "stepz", "1", "--stepz"),
               std::logic_error);
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
  std::string path = testutil::TempPath("cfg.ini");
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
