// biosim_run: config-driven simulation runner.
//
//   biosim_run [config.ini] [--steps N] [--backend cpu|gpu] [--threads N]
//              [--cpu-fast-path BOOL] [--simd BOOL] [--zorder-every N]
//              [--shards N] [--shard-balance static|adaptive]
//              [--print-config] [--sanitize] [--trace FILE] [--metrics FILE]
//              [--metrics-every N] [--report FILE] [--json]
//              [--perf-counters] [--flight-recorder FILE]
//              [--flight-recorder-depth N] [--progress SEC]
//              [--verify-determinism]
//
// See src/app/config.h for the config format; examples/configs/ ships
// ready-to-run files. Every value flag also accepts --flag=value. Without a
// config file the built-in defaults run (a small cell-division model).
//
// The BIOSIM_THREADS environment variable overrides the worker thread count
// (equivalent to --threads; the explicit flag wins). The CI determinism
// sweep runs the same config under several BIOSIM_THREADS values and
// requires identical state hashes.
//
// --shards N runs the spatially sharded pipeline (docs/sharding.md): the
// domain is cut into N z-plane ranges, each stepped by its own rank-like
// shard with deterministic halo exchange. N = 0 (default) is the unsharded
// pipeline. --shard-balance picks the plane split: static (equal planes) or
// adaptive (equal load). Results are bitwise-identical for every N; the CI
// determinism job sweeps --shards x BIOSIM_THREADS and requires one hash.
//
// --verify-determinism runs the configured scenario multiple times from
// scratch (twice at the configured thread count plus once single-threaded;
// with --shards N also once unsharded and once at a different shard count),
// hashes the full simulation state after every step, and compares the hash
// sequences bitwise (docs/determinism.md). Prints the final state hash and
// exits 0 when all runs are identical, 3 when they diverge. No configured
// outputs are written in this mode, except that with --flight-recorder FILE
// a divergence dumps the last-N-step ring of the diverging run (reason
// "determinism-divergence", with expected/actual hashes) before exiting 3.
//
// Observability (docs/observability.md):
//   --trace FILE          Chrome/Perfetto trace of the run (host spans +
//                         simulated-GPU kernel tracks)
//   --metrics FILE        per-step metrics snapshots, one JSON object per
//                         line; cadence set by --metrics-every N
//   --report FILE         versioned machine-readable run report
//   --json                print the run report to stdout instead of the
//                         human-readable summary
//   --perf-counters       sample per-op hardware counters (perf_event_open)
//                         into the report's "perf_counters" + "roofline"
//                         sections; degrades to available:false where the
//                         syscall is forbidden (docs/observability.md)
//   --flight-recorder FILE
//                         keep a ring of the last N step summaries and dump
//                         it to FILE on SIGSEGV/SIGABRT/SIGBUS or on a
//                         --verify-determinism divergence
//   --flight-recorder-depth N
//                         ring capacity in steps (default 64)
//   --progress SEC        heartbeat on stderr every SEC seconds: step,
//                         steps/s, ETA, agent count, StateHash prefix
//
// --sanitize runs every GPU launch under the compute-sanitizer-style
// analysis layer (requires backend type gpu) and prints its report. Exit
// code 0 on success, 1 on any error (message on stderr), 2 when the
// sanitizer found hazards, 3 when --verify-determinism found divergence.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "app/config.h"
#include "app/runner.h"

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

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s [config.ini] [--steps N] [--backend cpu|gpu] "
                 "[--threads N] [--cpu-fast-path BOOL] [--simd BOOL] "
                 "[--zorder-every N] [--shards N] "
                 "[--shard-balance static|adaptive] "
                 "[--print-config] [--sanitize] [--trace FILE] "
                 "[--metrics FILE] [--metrics-every N] [--report FILE] "
                 "[--json] [--perf-counters] [--flight-recorder FILE] "
                 "[--flight-recorder-depth N] [--progress SEC] "
                 "[--verify-determinism]\n",
                 argv[0]);
    return 1;
  }

  try {
    RunConfig cfg;
    int first_flag = 1;
    if (argc > 1 && argv[1][0] != '-') {
      cfg = ParseConfigFile(argv[1]);
      first_flag = 2;
    }
    if (const char* env_threads = std::getenv("BIOSIM_THREADS")) {
      cfg.num_threads =
          static_cast<uint32_t>(std::atoll(env_threads));
    }

    bool print_config = false;
    bool json_output = false;
    bool verify_determinism = false;
    std::string value;
    for (int i = first_flag; i < argc; ++i) {
      if (FlagValue(argc, argv, &i, "--steps", &value)) {
        cfg.steps = static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--backend", &value)) {
        cfg.backend_type = value;
      } else if (FlagValue(argc, argv, &i, "--threads", &value)) {
        cfg.num_threads = static_cast<uint32_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--cpu-fast-path", &value)) {
        cfg.cpu_fast_path = value == "1" || value == "true" || value == "on";
      } else if (FlagValue(argc, argv, &i, "--simd", &value)) {
        cfg.simd = value == "1" || value == "true" || value == "on";
      } else if (FlagValue(argc, argv, &i, "--zorder-every", &value)) {
        cfg.zorder_every = static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--shards", &value)) {
        cfg.shards = static_cast<uint32_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--shard-balance", &value)) {
        cfg.shard_balance = value;
      } else if (FlagValue(argc, argv, &i, "--trace", &value)) {
        cfg.trace_path = value;
      } else if (FlagValue(argc, argv, &i, "--metrics-every", &value)) {
        cfg.metrics_every = static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--metrics", &value)) {
        cfg.metrics_path = value;
      } else if (FlagValue(argc, argv, &i, "--report", &value)) {
        cfg.report_path = value;
      } else if (FlagValue(argc, argv, &i, "--flight-recorder-depth",
                           &value)) {
        cfg.flight_recorder_depth =
            static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (FlagValue(argc, argv, &i, "--flight-recorder", &value)) {
        cfg.flight_recorder_path = value;
      } else if (FlagValue(argc, argv, &i, "--progress", &value)) {
        cfg.progress_seconds = std::atof(value.c_str());
      } else if (std::strcmp(argv[i], "--perf-counters") == 0) {
        cfg.perf_counters = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json_output = true;
      } else if (std::strcmp(argv[i], "--print-config") == 0) {
        print_config = true;
      } else if (std::strcmp(argv[i], "--sanitize") == 0) {
        cfg.sanitize = true;
      } else if (std::strcmp(argv[i], "--verify-determinism") == 0) {
        verify_determinism = true;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        return 1;
      }
    }
    cfg.Validate();

    if (print_config) {
      std::printf(
          "model=%s backend=%s steps=%llu seed=%llu\n", cfg.model_type.c_str(),
          cfg.backend_type.c_str(),
          static_cast<unsigned long long>(cfg.steps),
          static_cast<unsigned long long>(cfg.seed));
    }

    if (verify_determinism) {
      DeterminismReport r = VerifyDeterminism(cfg);
      if (!r.deterministic) {
        std::fprintf(stderr,
                     "determinism: FAIL (state hashes diverge at step %" PRIu64
                     " across %d runs)\n",
                     r.first_divergent_step, r.runs);
        return 3;
      }
      std::printf("determinism: OK (%d runs, %llu steps, final state hash "
                  "%016" PRIx64 ")\n",
                  r.runs, static_cast<unsigned long long>(cfg.steps),
                  r.final_hash);
      return 0;
    }

    RunSummary s = ExecuteRun(cfg);
    if (json_output) {
      std::printf("%s\n", s.report_json.c_str());
    } else {
      std::printf("agents: %zu -> %zu in %llu steps, wall %.1f ms",
                  s.initial_agents, s.final_agents,
                  static_cast<unsigned long long>(cfg.steps), s.wall_ms);
      if (s.gpu_simulated_ms > 0.0) {
        std::printf(", simulated GPU %.3f ms", s.gpu_simulated_ms);
      }
      std::printf("\n\n%s", s.profile.c_str());
    }
    if (cfg.sanitize) {
      if (!json_output) {
        std::printf("\n%s", s.sanitizer_report.c_str());
      }
      if (s.sanitizer_hazards > 0) {
        return 2;  // hazards found: fail like compute-sanitizer would
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
