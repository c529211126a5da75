// Sharded steady-state benchmark: the workload spatial domain decomposition
// (Param::num_shards, docs/sharding.md) is built for — a large slow-moving
// random-walk population on a torus whose box lattice (192^3 = 7M boxes at
// edge 1536 / diameter 8) dwarfs the population. The unsharded pipeline pays
// the global grid's per-step full-lattice scan; each shard instead rebuilds
// an occupancy-compacted CSR over just its owned+ghost members, so the
// sharded step scales with the population, not the lattice.
//
// `--json PATH` writes the BENCH_cpu.json "shard" record CI gates on: wall
// time of the stepped pipeline over the SAME seeded scenario —
//   unsharded  num_shards 0 (the single-shard parallel path)
//   sharded4   num_shards 4
//   sharded8   num_shards 8
// plus their speedups and the halo-traffic counters. All three runs owe the
// identical final StateHash (the sharding determinism contract) and the
// sharded runs owe nonzero halo traffic (proof the rank protocol engaged,
// not silently fell back); the run exits 2 if either invariant breaks, so
// the CI perf job doubles as a correctness gate. `--agents N` / `--steps N`
// resize the scenario (defaults: 131072 agents, 10 timed steps).
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
#include "core/shard_runtime.h"
#include "core/simulation.h"
#include "core/timer.h"
#include "diffusion/diffusion_grid.h"
#include "obs/json.h"
#include "obs/report.h"
#include "spatial/uniform_grid.h"

namespace {

using namespace biosim;

// Same lattice regime as bench_micro_steady: cube edge 1536, diameter 8 →
// box length 8, 192 z-planes, 7M boxes. At 128k agents only ~3% of boxes
// are occupied, so compacted per-shard CSRs skip ~97% of the lattice walk.
constexpr double kEdge = 1536.0;
constexpr double kDiameter = 8.0;
constexpr double kWalkSpeed = 60.0;
constexpr double kSecretionRate = 0.5;
constexpr size_t kSecretionStride = 16;
constexpr uint64_t kWarmupSteps = 2;

std::unique_ptr<Simulation> BuildSharded(size_t agents, uint32_t shards) {
  Param param;
  param.boundary_mode = BoundaryMode::kTorus;
  param.min_bound = 0.0;
  param.max_bound = kEdge;
  param.random_seed = 42;
  param.num_shards = shards;
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

struct ShardResult {
  double wall_ms = 0.0;
  uint64_t final_hash = 0;
  uint64_t ghosts = 0;      // halo rows received at the final step
  uint64_t messages = 0;    // Communicator messages over the whole run
  uint64_t bytes = 0;       // Communicator payload bytes over the whole run
  uint64_t migrations = 0;  // owner changes at the final step
};

ShardResult RunSharded(size_t agents, uint64_t steps, uint32_t shards) {
  auto sim = BuildSharded(agents, shards);
  sim->Simulate(kWarmupSteps);  // first grid build + buffer growth
  Timer t;
  sim->Simulate(steps);
  ShardResult r;
  r.wall_ms = t.ElapsedMs();
  r.final_hash = sim->StateHash();
  if (const ShardRuntime* srt = sim->shard_runtime()) {
    for (uint64_t g : srt->ghosts_received()) {
      r.ghosts += g;
    }
    r.messages = srt->communicator().messages_sent();
    r.bytes = srt->communicator().bytes_sent();
    r.migrations = srt->last_migrations();
  }
  if (std::getenv("SHARD_PROFILE") != nullptr) {
    std::fprintf(stderr, "--- shards=%u ---\n%s\n", shards,
                 sim->profile().ToString().c_str());
  }
  return r;
}

// Micro view of the maintenance trade: one global full-lattice grid Update
// vs one full shard cycle (repartition + halo exchange + compacted CSR
// rebuild) over the same unchanged population.
void BM_GlobalGridUpdate(benchmark::State& state) {
  auto sim = BuildSharded(8192, 0);
  const Param param = sim->param();
  UniformGridEnvironment env;
  env.Update(sim->rm(), param, ExecMode::kSerial);
  for (auto _ : state) {
    env.Update(sim->rm(), param, ExecMode::kSerial);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_GlobalGridUpdate);

void BM_ShardCycle(benchmark::State& state) {
  auto sim = BuildSharded(8192, 0);
  ShardRuntime runtime(4, ShardBalance::kStatic);
  runtime.Repartition(sim->rm(), sim->param());
  runtime.ExchangeHalos(sim->rm(), ExecMode::kSerial);
  runtime.UpdateGrids(sim->rm(), ExecMode::kSerial);
  for (auto _ : state) {
    runtime.Repartition(sim->rm(), sim->param());
    runtime.ExchangeHalos(sim->rm(), ExecMode::kSerial);
    runtime.UpdateGrids(sim->rm(), ExecMode::kSerial);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_ShardCycle);

int WriteBenchJson(const std::string& path, size_t agents, uint64_t steps) {
  namespace json = biosim::obs::json;

  ShardResult unsharded = RunSharded(agents, steps, 0);
  ShardResult sharded4 = RunSharded(agents, steps, 4);
  ShardResult sharded8 = RunSharded(agents, steps, 8);

  const bool hash_parity = unsharded.final_hash == sharded4.final_hash &&
                           unsharded.final_hash == sharded8.final_hash;
  const bool engaged = sharded4.messages > 0 && sharded4.ghosts > 0 &&
                       sharded8.messages > 0 && sharded8.ghosts > 0 &&
                       unsharded.messages == 0;
  const double speedup4 =
      sharded4.wall_ms > 0.0 ? unsharded.wall_ms / sharded4.wall_ms : 0.0;
  const double speedup8 =
      sharded8.wall_ms > 0.0 ? unsharded.wall_ms / sharded8.wall_ms : 0.0;

  json::Value doc = biosim::obs::MakeRunReport("bench_micro_shard");
  doc.Set("bench", "bench_micro_shard");
  doc.Set("schema", 1);
  json::Value sc = json::Value::MakeObject();
  sc.Set("workload",
         "sharded random-walk torus cloud, full stepped pipeline");
  sc.Set("agents", agents);
  sc.Set("steps", steps);
  sc.Set("edge", kEdge);
  sc.Set("diameter", kDiameter);
  sc.Set("walk_speed", kWalkSpeed);
  doc.Set("scenario", std::move(sc));
  json::Value un = json::Value::MakeObject();
  un.Set("wall_ms", unsharded.wall_ms);
  doc.Set("unsharded", std::move(un));
  json::Value s4 = json::Value::MakeObject();
  s4.Set("wall_ms", sharded4.wall_ms);
  s4.Set("ghosts", sharded4.ghosts);
  s4.Set("messages", sharded4.messages);
  s4.Set("bytes", sharded4.bytes);
  s4.Set("migrations", sharded4.migrations);
  doc.Set("sharded4", std::move(s4));
  json::Value s8 = json::Value::MakeObject();
  s8.Set("wall_ms", sharded8.wall_ms);
  s8.Set("ghosts", sharded8.ghosts);
  s8.Set("messages", sharded8.messages);
  s8.Set("bytes", sharded8.bytes);
  s8.Set("migrations", sharded8.migrations);
  doc.Set("sharded8", std::move(s8));
  doc.Set("speedup_shard4", speedup4);
  doc.Set("speedup_shard8", speedup8);
  doc.Set("hash_parity", hash_parity);
  doc.Set("shard_engaged", engaged);

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s: unsharded %.2f ms, sharded4 %.2f ms (%.2fx, %llu ghosts, "
      "%llu msgs), sharded8 %.2f ms (%.2fx), hash parity %s, shard "
      "engaged %s\n",
      path.c_str(), unsharded.wall_ms, sharded4.wall_ms, speedup4,
      static_cast<unsigned long long>(sharded4.ghosts),
      static_cast<unsigned long long>(sharded4.messages), sharded8.wall_ms,
      speedup8, hash_parity ? "OK" : "FAIL", engaged ? "OK" : "FAIL");
  if (!hash_parity || !engaged) {
    std::fprintf(
        stderr,
        "error: shard invariants broken (hashes %016llx / %016llx / "
        "%016llx, messages %llu / %llu)\n",
        static_cast<unsigned long long>(unsharded.final_hash),
        static_cast<unsigned long long>(sharded4.final_hash),
        static_cast<unsigned long long>(sharded8.final_hash),
        static_cast<unsigned long long>(sharded4.messages),
        static_cast<unsigned long long>(sharded8.messages));
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them.
  std::string json_path;
  size_t agents = 131072;
  uint64_t steps = 10;
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
