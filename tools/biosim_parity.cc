// biosim_parity: cross-backend divergence diff driver.
//
//   biosim_parity [--agents N] [--steps N] [--seed N] [--space X]
//                 [--diameter X]
//
// Runs the same seeded random-cloud scenario through every backend — the
// kd-tree, the uniform grid (serial and parallel), and GPU versions v0..v4
// — and prints each backend's divergence from the uniform-grid serial
// reference next to its documented bound (src/app/parity.h,
// docs/determinism.md). Exit code 0 when every backend is within bounds,
// 1 otherwise; CI runs this on a small scenario so a backend drifting past
// its contract fails the build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "app/parity.h"

namespace {

/// Match `--name value` or `--name=value`; on a hit, fill `*value` and
/// advance `*i` past any consumed operand.
bool FlagValue(int argc, char** argv, int* i, const char* name,
               std::string* value) {
  const char* arg = argv[*i];
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace biosim::app;

  try {
    ParityScenario sc;
    std::string value;
    for (int i = 1; i < argc; ++i) {
      if (FlagValue(argc, argv, &i, "--agents", &value)) {
        sc.agents = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--steps", &value)) {
        sc.steps = static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--seed", &value)) {
        sc.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--space", &value)) {
        sc.space = std::atof(value.c_str());
      } else if (FlagValue(argc, argv, &i, "--diameter", &value)) {
        sc.diameter = std::atof(value.c_str());
      } else {
        std::fprintf(stderr,
                     "unknown argument: %s\nusage: %s [--agents N] "
                     "[--steps N] [--seed N] [--space X] [--diameter X]\n",
                     argv[i], argv[0]);
        return 1;
      }
    }

    ParityReport report = RunParity(sc);
    std::printf("%s", report.ToString().c_str());
    if (!report.all_pass) {
      std::fprintf(stderr, "parity: FAIL (a backend exceeded its bound)\n");
      return 1;
    }
    std::printf("parity: OK\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
