#include "app/parity.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "core/simulation.h"
#include "gpu/gpu_mechanical_op.h"
#include "spatial/forwarding_environment.h"
#include "spatial/kd_tree.h"
#include "spatial/null_environment.h"
#include "spatial/uniform_grid.h"

namespace biosim::app {

namespace {

struct BackendSpec {
  const char* name;
  /// kCpuGridCallback wraps the uniform grid in a ForwardingEnvironment, so
  /// the forces take the generic callback path over the same neighbor
  /// structure: the reference rows use it, so the cpu_fast rows prove
  /// fused == callback rather than fused == fused.
  enum class Kind { kCpuGridCallback, kCpuGrid, kCpuKdTree, kGpu } kind;
  ExecMode mode = ExecMode::kSerial;
  int gpu_version = 0;
  bool bitwise = false;
  double tolerance = 0.0;
  /// Spatial shard count (Param::num_shards); 0 = unsharded. The sharded
  /// pipeline owes bitwise identity (docs/sharding.md), so its row carries
  /// tolerance 0 like the fast-path rows.
  uint32_t shards = 0;
};

std::unique_ptr<Simulation> MakeSim(const ParityScenario& sc,
                                    const BackendSpec& b) {
  Param param;
  param.random_seed = sc.seed;
  param.min_bound = 0.0;
  param.max_bound = sc.space;
  param.num_shards = b.shards;
  auto sim = std::make_unique<Simulation>(param);
  sim->CreateRandomCells(sc.agents, sc.diameter);
  switch (b.kind) {
    case BackendSpec::Kind::kCpuGridCallback:
      sim->SetEnvironment(std::make_unique<ForwardingEnvironment>(
          std::make_unique<UniformGridEnvironment>()));
      break;
    case BackendSpec::Kind::kCpuGrid:
      break;  // the Simulation default
    case BackendSpec::Kind::kCpuKdTree:
      sim->SetEnvironment(std::make_unique<KdTreeEnvironment>());
      break;
    case BackendSpec::Kind::kGpu:
      sim->SetEnvironment(std::make_unique<NullEnvironment>());
      sim->SetMechanicsBackend(std::make_unique<gpu::GpuMechanicalOp>(
          gpu::GpuMechanicsOptions::Version(b.gpu_version)));
      break;
  }
  sim->SetExecMode(b.mode);
  return sim;
}

struct Trajectory {
  std::vector<uint64_t> hashes;  // state hash after each step
  std::map<AgentUid, Double3> final_positions;
};

Trajectory RunBackend(const ParityScenario& sc, const BackendSpec& b) {
  auto sim = MakeSim(sc, b);
  Trajectory t;
  t.hashes.reserve(sc.steps);
  for (uint64_t s = 0; s < sc.steps; ++s) {
    sim->Simulate(1);
    t.hashes.push_back(sim->StateHash());
  }
  const ResourceManager& rm = sim->rm();
  for (size_t i = 0; i < rm.size(); ++i) {
    // Keyed by uid: the z-order-sorting GPU versions permute rows.
    t.final_positions[rm.uids()[i]] = rm.positions()[i];
  }
  return t;
}

double MaxAbsDelta(const Trajectory& ref, const Trajectory& other) {
  double max_delta = 0.0;
  for (const auto& [uid, want] : ref.final_positions) {
    auto it = other.final_positions.find(uid);
    if (it == other.final_positions.end()) {
      return std::numeric_limits<double>::infinity();  // lost an agent
    }
    const Double3& got = it->second;
    max_delta = std::max(max_delta, std::fabs(got.x - want.x));
    max_delta = std::max(max_delta, std::fabs(got.y - want.y));
    max_delta = std::max(max_delta, std::fabs(got.z - want.z));
  }
  if (other.final_positions.size() != ref.final_positions.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return max_delta;
}

}  // namespace

ParityReport RunParity(const ParityScenario& scenario) {
  using Kind = BackendSpec::Kind;
  const BackendSpec specs[] = {
      // First entry is the reference everything else is compared against.
      {"ug_serial", Kind::kCpuGridCallback, ExecMode::kSerial, 0, true, 0.0},
      {"ug_parallel", Kind::kCpuGridCallback, ExecMode::kParallel, 0, true,
       0.0},
      {"cpu_fast", Kind::kCpuGrid, ExecMode::kSerial, 0, true, 0.0},
      {"cpu_fast_mt", Kind::kCpuGrid, ExecMode::kParallel, 0, true, 0.0},
      {"cpu_sharded", Kind::kCpuGrid, ExecMode::kParallel, 0, true, 0.0, 2},
      {"kdtree", Kind::kCpuKdTree, ExecMode::kSerial, 0, false, kKdTreeTol},
      {"gpu_v0", Kind::kGpu, ExecMode::kSerial, 0, false, kGpuFp64Tol},
      {"gpu_v1", Kind::kGpu, ExecMode::kSerial, 1, false, kGpuFp32Tol},
      {"gpu_v2", Kind::kGpu, ExecMode::kSerial, 2, false, kGpuFp32Tol},
      {"gpu_v3", Kind::kGpu, ExecMode::kSerial, 3, false, kGpuFp32Tol},
      {"gpu_v4", Kind::kGpu, ExecMode::kSerial, 4, false, kGpuFp32Tol},
  };

  ParityReport report;
  report.scenario = scenario;
  report.all_pass = true;

  Trajectory reference = RunBackend(scenario, specs[0]);
  for (const BackendSpec& spec : specs) {
    Trajectory t = &spec == &specs[0] ? reference : RunBackend(scenario, spec);
    ParityResult r;
    r.backend = spec.name;
    r.bitwise_required = spec.bitwise;
    r.tolerance = spec.tolerance;
    r.hashes_equal = t.hashes == reference.hashes;
    r.max_abs_delta = MaxAbsDelta(reference, t);
    r.final_hash = t.hashes.empty() ? 0 : t.hashes.back();
    r.pass = spec.bitwise ? r.hashes_equal : r.max_abs_delta <= spec.tolerance;
    report.all_pass = report.all_pass && r.pass;
    report.results.push_back(std::move(r));
  }
  return report;
}

std::string ParityReport::ToString() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "parity vs ug_serial: agents=%zu space=%.1f diameter=%.1f "
                "seed=%llu steps=%llu\n",
                scenario.agents, scenario.space, scenario.diameter,
                static_cast<unsigned long long>(scenario.seed),
                static_cast<unsigned long long>(scenario.steps));
  std::string out = line;
  std::snprintf(line, sizeof(line), "  %-12s %-10s %-12s %-12s %-18s %s\n",
                "backend", "owed", "max|dpos|", "bound", "final hash",
                "status");
  out += line;
  for (const ParityResult& r : results) {
    char bound[32];
    if (r.bitwise_required) {
      std::snprintf(bound, sizeof(bound), "%s", "bitwise");
    } else {
      std::snprintf(bound, sizeof(bound), "%.1e", r.tolerance);
    }
    std::snprintf(line, sizeof(line),
                  "  %-12s %-10s %-12.3e %-12s %016llx   %s\n",
                  r.backend.c_str(),
                  r.bitwise_required ? "bitwise" : "tolerance",
                  r.max_abs_delta, bound,
                  static_cast<unsigned long long>(r.final_hash),
                  r.pass ? "OK" : "FAIL");
    out += line;
  }
  return out;
}

}  // namespace biosim::app
