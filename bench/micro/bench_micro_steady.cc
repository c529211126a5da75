// Steady-state pipeline benchmark: the workload the incremental grid
// rebuild (Param::incremental_grid) is built for — a slow-moving
// random-walk population on a torus whose grid geometry never changes, so
// almost every step only a few agents cross a box boundary while the box
// count dwarfs the agent count (grid maintenance dominates the step).
//
// `--json PATH` writes the BENCH_cpu.json "steady" record CI gates on:
// wall time of the stepped pipeline with incremental_grid off (full, the
// historical path) and on (incremental) over the SAME seeded scenario,
// plus the speedup and the grid maintenance counters. Both runs owe the
// identical final StateHash (the knob is bitwise-neutral by contract) and
// the incremental run owes a nonzero incremental_updates count (proof the
// patch path engaged, not silently fell back); the run exits 2 if either
// invariant breaks, so the CI perf job doubles as a
// correctness gate. `--agents N` / `--steps N` resize the scenario
// (defaults: 32768 agents, 30 timed steps).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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

std::unique_ptr<Simulation> BuildSteady(size_t agents, bool incremental) {
  Param param;
  param.boundary_mode = BoundaryMode::kTorus;
  param.min_bound = 0.0;
  param.max_bound = kEdge;
  param.random_seed = 42;
  param.incremental_grid = incremental;
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
  uint64_t final_hash = 0;
  UniformGridEnvironment::UpdateStats grid;
};

SteadyResult RunSteady(size_t agents, uint64_t steps, bool incremental) {
  auto sim = BuildSteady(agents, incremental);
  sim->Simulate(kWarmupSteps);  // first grid build + buffer growth
  Timer t;
  sim->Simulate(steps);
  SteadyResult r;
  r.wall_ms = t.ElapsedMs();
  r.final_hash = sim->StateHash();
  if (std::getenv("STEADY_PROFILE") != nullptr) {
    std::fprintf(stderr, "--- incremental=%d ---\n%s\n", incremental ? 1 : 0,
                 sim->profile().ToString().c_str());
  }
  if (const auto* ug =
          dynamic_cast<const UniformGridEnvironment*>(&sim->environment())) {
    r.grid = ug->update_stats();
  }
  return r;
}

// Micro view of the same trade: one grid Update over an unchanged steady
// population — the incremental path collapses to the mover scan.
void GridUpdateThroughput(benchmark::State& state, bool incremental) {
  auto sim = BuildSteady(8192, incremental);
  const Param param = sim->param();
  UniformGridEnvironment env;
  env.Update(sim->rm(), param, ExecMode::kSerial);
  for (auto _ : state) {
    env.Update(sim->rm(), param, ExecMode::kSerial);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}

void BM_GridUpdateFull(benchmark::State& state) {
  GridUpdateThroughput(state, false);
}
BENCHMARK(BM_GridUpdateFull);

void BM_GridUpdateIncremental(benchmark::State& state) {
  GridUpdateThroughput(state, true);
}
BENCHMARK(BM_GridUpdateIncremental);

int WriteBenchJson(const std::string& path, size_t agents, uint64_t steps) {
  namespace json = biosim::obs::json;

  SteadyResult full = RunSteady(agents, steps, false);
  SteadyResult incremental = RunSteady(agents, steps, true);

  const bool hash_parity = full.final_hash == incremental.final_hash;
  // kWarmupSteps + steps updates total; the first is always a full rebuild.
  const bool engaged = incremental.grid.incremental_updates > 0 &&
                       full.grid.incremental_updates == 0;
  const double speedup_incremental =
      incremental.wall_ms > 0.0 ? full.wall_ms / incremental.wall_ms : 0.0;

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
  fu.Set("full_rebuilds", full.grid.full_rebuilds);
  doc.Set("full", std::move(fu));
  json::Value inc = json::Value::MakeObject();
  inc.Set("wall_ms", incremental.wall_ms);
  inc.Set("full_rebuilds", incremental.grid.full_rebuilds);
  inc.Set("incremental_updates", incremental.grid.incremental_updates);
  inc.Set("rebinned_agents", incremental.grid.rebinned_agents);
  doc.Set("incremental", std::move(inc));
  doc.Set("speedup_incremental", speedup_incremental);
  doc.Set("hash_parity", hash_parity);
  doc.Set("incremental_engaged", engaged);

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s: full %.2f ms, incremental %.2f ms (%.2fx, %llu patches, "
      "%llu rebinned), hash parity %s, incremental engaged %s\n",
      path.c_str(), full.wall_ms, incremental.wall_ms, speedup_incremental,
      static_cast<unsigned long long>(incremental.grid.incremental_updates),
      static_cast<unsigned long long>(incremental.grid.rebinned_agents),
      hash_parity ? "OK" : "FAIL",
      engaged ? "OK" : "FAIL");
  if (!hash_parity || !engaged) {
    std::fprintf(
        stderr,
        "error: steady invariants broken (hashes %016llx / %016llx, "
        "incremental updates %llu)\n",
        static_cast<unsigned long long>(full.final_hash),
        static_cast<unsigned long long>(incremental.final_hash),
        static_cast<unsigned long long>(
            incremental.grid.incremental_updates));
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
      agents = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = static_cast<uint64_t>(std::atoll(argv[++i]));
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
