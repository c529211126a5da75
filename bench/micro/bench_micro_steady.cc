// Steady-state pipeline benchmark: a slow-moving random-walk population on
// a torus whose grid geometry never changes while the box count dwarfs the
// agent count — the regime where a grid that paid for every box each step
// spent most of the step on empty boxes (docs/perf.md "Compacted CSR").
//
// `--json PATH` writes the BENCH_cpu.json "steady" record CI gates on: wall
// time of the stepped pipeline, the grid update's share of it, and
// `patch_ceiling` = 1 / (1 - share) — the speedup even a free incremental
// grid patch could buy over the compacted rebuild, which is the measurement
// the deleted incremental path was judged on. A second run of the SAME
// seeded scenario on one worker owes the identical final StateHash (the
// parallel radix build is thread-count independent); the run exits 2 if it
// does not, so the CI perf job doubles as a correctness gate.
// `--agents N` / `--steps N` resize the scenario (defaults: 32768 agents,
// 30 timed steps).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "../common.h"
#include "core/behaviors/random_walk.h"
#include "core/behaviors/secretion.h"
#include "core/param.h"
#include "core/simulation.h"
#include "core/timer.h"
#include "diffusion/diffusion_grid.h"
#include "obs/json.h"
#include "obs/report.h"
#include "spatial/uniform_grid.h"

namespace {

using namespace biosim;

// Cube edge 1536 with diameter-8 agents: box length 8, 192^3 = 7M boxes for
// 32k agents — the low-density regime where rebuilding every box each step
// is almost entirely wasted work. Walk speed 60 with dt 0.01 moves an agent
// 0.6 um/step, so ~10% of agents cross a box face per step.
constexpr double kEdge = 1536.0;
constexpr double kDiameter = 8.0;
constexpr double kWalkSpeed = 60.0;
constexpr double kSecretionRate = 0.5;
constexpr size_t kSecretionStride = 16;
constexpr uint64_t kWarmupSteps = 2;

std::unique_ptr<Simulation> BuildSteady(size_t agents, uint32_t threads) {
  Param param;
  param.boundary_mode = BoundaryMode::kTorus;
  param.min_bound = 0.0;
  param.max_bound = kEdge;
  param.random_seed = 42;
  param.num_threads = threads;
  auto sim = std::make_unique<Simulation>(param);
  sim->CreateRandomCells(agents, kDiameter);
  sim->AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", 0.0, kEdge, /*resolution=*/32, /*diffusion=*/50.0,
      /*decay=*/0.01));
  for (size_t i = 0; i < agents; ++i) {
    sim->rm().AttachBehavior(i, std::make_unique<RandomWalk>(kWalkSpeed));
    if (i % kSecretionStride == 0) {
      sim->rm().AttachBehavior(
          i, std::make_unique<Secretion>("oxygen", kSecretionRate));
    }
  }
  return sim;
}

struct SteadyResult {
  double wall_ms = 0.0;
  double grid_update_ms = 0.0;
  uint64_t final_hash = 0;
  uint64_t rebuilds = 0;
};

// `threads` 0 keeps the runtime's worker count.
SteadyResult RunSteady(size_t agents, uint64_t steps, uint32_t threads) {
  auto sim = BuildSteady(agents, threads);
  sim->Simulate(kWarmupSteps);  // first grid build + buffer growth
  sim->profile().Reset();
  Timer t;
  sim->Simulate(steps);
  SteadyResult r;
  r.wall_ms = t.ElapsedMs();
  r.grid_update_ms = sim->profile().TotalMs("neighborhood update");
  r.final_hash = sim->StateHash();
  if (std::getenv("STEADY_PROFILE") != nullptr) {
    std::fprintf(stderr, "--- threads=%u ---\n%s\n", threads,
                 sim->profile().ToString().c_str());
  }
  if (const auto* ug =
          dynamic_cast<const UniformGridEnvironment*>(&sim->environment())) {
    r.rebuilds = ug->rebuilds();
  }
  return r;
}

// Micro view: one grid Update over an unchanged steady population.
void BM_GridUpdate(benchmark::State& state) {
  auto sim = BuildSteady(8192, 0);
  const Param param = sim->param();
  UniformGridEnvironment env;
  env.Update(sim->rm(), param, ExecMode::kSerial);
  for (auto _ : state) {
    env.Update(sim->rm(), param, ExecMode::kSerial);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_GridUpdate);

int WriteBenchJson(const std::string& path, size_t agents, uint64_t steps) {
  namespace json = biosim::obs::json;

  SteadyResult full = RunSteady(agents, steps, 0);
  // One worker last: SetNumThreads(0) would keep it for any later run.
  SteadyResult serial = RunSteady(agents, steps, 1);

  const bool hash_parity = full.final_hash == serial.final_hash;
  const double grid_share =
      full.wall_ms > 0.0 ? full.grid_update_ms / full.wall_ms : 0.0;
  const double patch_ceiling = grid_share < 1.0 ? 1.0 / (1.0 - grid_share)
                                                : 0.0;

  json::Value doc = biosim::obs::MakeRunReport("bench_micro_steady");
  doc.Set("bench", "bench_micro_steady");
  doc.Set("schema", 1);
  json::Value sc = json::Value::MakeObject();
  sc.Set("workload",
         "steady random-walk torus cloud, full stepped pipeline");
  sc.Set("agents", agents);
  sc.Set("steps", steps);
  sc.Set("edge", kEdge);
  sc.Set("diameter", kDiameter);
  sc.Set("walk_speed", kWalkSpeed);
  doc.Set("scenario", std::move(sc));
  json::Value fu = json::Value::MakeObject();
  fu.Set("wall_ms", full.wall_ms);
  fu.Set("grid_update_ms", full.grid_update_ms);
  fu.Set("full_rebuilds", full.rebuilds);
  doc.Set("full", std::move(fu));
  doc.Set("grid_share", grid_share);
  doc.Set("patch_ceiling", patch_ceiling);
  doc.Set("hash_parity", hash_parity);

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s: full %.2f ms, grid update %.2f ms (%.1f%% of the step, "
      "patch ceiling %.3fx), hash parity vs one worker %s\n",
      path.c_str(), full.wall_ms, full.grid_update_ms, 100.0 * grid_share,
      patch_ceiling, hash_parity ? "OK" : "FAIL");
  if (!hash_parity) {
    std::fprintf(stderr,
                 "error: steady hash diverged across worker counts "
                 "(%016llx / %016llx)\n",
                 static_cast<unsigned long long>(full.final_hash),
                 static_cast<unsigned long long>(serial.final_hash));
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them.
  std::string json_path;
  size_t agents = 32768;
  uint64_t steps = 30;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      agents = bench::FlagOrExit(app::ToCount<size_t>, "--agents", argv[++i]);
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = bench::FlagOrExit(app::ToCount<uint64_t>, "--steps", argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  // The JSON mode is a standalone measurement; skip the google-benchmark
  // suite so CI's perf job stays fast.
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (!json_path.empty()) {
    return WriteBenchJson(json_path, agents, steps);
  }
  return 0;
}
