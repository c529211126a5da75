// Exit-code contract of `biosim_run --sanitize` (tools/biosim_run.cc),
// exercised end to end by spawning the real binary:
//
//   0  clean run (sanitized or not)
//   1  usage / config errors
//   2  the sanitizer found hazards (compute-sanitizer convention)
//
// The hazardous workload is the deliberately racy grid-build kernel
// (gpu/diagnostic_kernels.h) selected with `racy_grid_build = true` — the
// same simulation exits 0 without --sanitize and 2 with it, which is
// exactly the CLI promise documented in docs/sanitizer.md. Flags of removed
// settings, malformed values and invalid knob pairings take the
// usage-error exit too.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"

#ifndef BIOSIM_RUN_BIN
#error "BIOSIM_RUN_BIN must point at the biosim_run binary"
#endif

namespace biosim {
namespace {

std::string WriteConfig(const char* name, const std::string& extra_backend) {
  std::string path = testutil::TempPath(name);
  std::ofstream f(path);
  f << "[simulation]\n"
       "steps = 1\n"
       "seed = 7\n"
       "max_displacement = 0\n"
       "\n"
       "[model]\n"
       "type = random_cloud\n"
       "agents = 512\n"
       "density = 27\n"
       "diameter = 10\n"
       "\n"
       "[backend]\n"
       "type = gpu\n"
       "gpu_version = 2\n"
       "meter_stride = 4\n"
    << extra_backend;
  return path;
}

int RunBiosim(const std::string& args) {
  std::string cmd =
      std::string(BIOSIM_RUN_BIN) + " " + args + " > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "abnormal termination of " << cmd;
  return WEXITSTATUS(status);
}

TEST(SanitizeCliTest, CleanConfigExitsZeroUnderSanitizer) {
  std::string cfg = WriteConfig("clean.ini", "");
  EXPECT_EQ(RunBiosim(cfg + " --sanitize"), 0);
  std::remove(cfg.c_str());
}

TEST(SanitizeCliTest, RacyKernelExitsTwoUnderSanitizer) {
  std::string cfg = WriteConfig("racy.ini", "racy_grid_build = true\n");
  EXPECT_EQ(RunBiosim(cfg + " --sanitize"), 2);
  std::remove(cfg.c_str());
}

TEST(SanitizeCliTest, RacyKernelExitsZeroWithoutSanitizer) {
  // The race is a *hazard*, not a functional failure of the sequential
  // simulator: unsanitized runs complete normally. Only --sanitize turns it
  // into a non-zero exit.
  std::string cfg = WriteConfig("racy_nosan.ini", "racy_grid_build = true\n");
  EXPECT_EQ(RunBiosim(cfg), 0);
  std::remove(cfg.c_str());
}

TEST(SanitizeCliTest, ConfigErrorExitsOne) {
  // racy_grid_build swaps a device kernel: rejected on the CPU backend.
  std::string path = testutil::TempPath("bad.ini");
  std::ofstream f(path);
  f << "[model]\ntype = random_cloud\nagents = 16\n"
       "[backend]\ntype = cpu\nracy_grid_build = true\n";
  f.close();
  EXPECT_EQ(RunBiosim(path), 1);
  EXPECT_EQ(RunBiosim(std::string()), 1);  // no config at all: usage error
  std::remove(path.c_str());
}

TEST(RunnerCliTest, RemovedFlagsAreUnknownArguments) {
  // Flags of settings the runner no longer has fail as usage errors that
  // name the cause; they are never silently ignored.
  const std::string err_file = testutil::TempPath("removed_flag.err");
  for (const char* flag :
       {"--overlap-ops on", "--precision fp32", "--incremental-grid off",
        "--simd on", "--cpu-fast-path off", "--zorder-every 5"}) {
    const std::string cmd = std::string(BIOSIM_RUN_BIN) + " --steps 1 " +
                            flag + " > /dev/null 2> " + err_file;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_NE(WEXITSTATUS(status), 0) << cmd;
    std::ifstream f(err_file);
    std::stringstream err;
    err << f.rdbuf();
    EXPECT_NE(err.str().find("unknown argument"), std::string::npos)
        << cmd << ": " << err.str();
  }
  std::remove(err_file.c_str());
}

TEST(RunnerCliTest, BadValuesAndCombinationsExitOneNamingTheCause) {
  // Flag and BIOSIM_THREADS values go through the config file's parsers;
  // each value here fails while parsing, so nothing is started. A knob
  // pairing no backend supports fails in the build, naming both knobs.
  const std::string torus_gpu = testutil::TempPath("torus_gpu.ini");
  {
    std::ofstream f(torus_gpu);
    f << "[simulation]\nboundary = torus\n[backend]\ntype = gpu\n";
  }
  struct Case {
    std::string env, args;
    std::vector<std::string> names;
  };
  const Case cases[] = {
      {"", "--steps 1 --shards abc", {"--shards"}},
      {"", "--steps five", {"--steps"}},
      {"", "--steps 1 --backend fpga", {"--backend"}},
      {"", "--steps 1 --shard-balance magic", {"--shard-balance"}},
      {"BIOSIM_THREADS=abc", "--steps 1", {"BIOSIM_THREADS"}},
      {"BIOSIM_THREADS=4294967297", "--steps 1", {"BIOSIM_THREADS"}},
      {"", torus_gpu + " --steps 1", {"boundary", "gpu"}},
  };
  const std::string err_file = testutil::TempPath("bad_value.err");
  for (const Case& c : cases) {
    const std::string cmd = c.env + " " + std::string(BIOSIM_RUN_BIN) + " " +
                            c.args + " > /dev/null 2> " + err_file;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
    std::ifstream f(err_file);
    std::stringstream err;
    err << f.rdbuf();
    for (const std::string& name : c.names) {
      EXPECT_NE(err.str().find(name), std::string::npos)
          << cmd << ": " << err.str();
    }
  }
  std::remove(err_file.c_str());
  std::remove(torus_gpu.c_str());
}

}  // namespace
}  // namespace biosim
