// Micro-benchmarks: Eq. (1) force evaluation throughput in both precisions.
// BM_ForceFp32 is the float force law the GPU ladder's FP32 versions run;
// the FP32/FP64 gap here is the *compute* side of Improvement I, the
// device-side gap also includes halved memory traffic.
//
// `--json PATH` additionally writes BENCH_cpu.json — the perf-trajectory
// record CI archives per commit: wall time of one mechanical-forces pass
// over a clustered-sphere population through the generic callback path,
// the fused CSR fast path (docs/perf.md) and the vectorized fused kernel
// (simd_path; physics/simd_force_kernel.h), plus their speedups. The
// scalar paths owe bitwise-identical displacement buffers; the vector path
// owes its documented tolerance (1e-12 on one pass) — and every path owes
// the same force-evaluation count. The run exits non-zero if any bound is ever
// exceeded, so the CI perf-smoke job doubles as a parity gate.
// `--agents N` / `--reps N` resize the scenario (defaults: 32768 agents,
// best of 5 reps).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "core/timer.h"
#include "obs/json.h"
#include "obs/report.h"
#include "physics/displacement.h"
#include "physics/interaction_force.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/uniform_grid.h"
#include "spatial/zorder_sort.h"

namespace {

using namespace biosim;

template <typename T>
void ForceThroughput(benchmark::State& state) {
  Random rng(7);
  const size_t kPairs = 4096;
  std::vector<Real3<T>> p1(kPairs), p2(kPairs);
  std::vector<T> r1(kPairs), r2(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    Double3 a = rng.UniformInCube(0, 100);
    Double3 b = a + rng.UnitVector() * rng.Uniform(1.0, 12.0);
    p1[i] = a.As<T>();
    p2[i] = b.As<T>();
    r1[i] = static_cast<T>(rng.Uniform(3.0, 8.0));
    r2[i] = static_cast<T>(rng.Uniform(3.0, 8.0));
  }
  ForceParams<T> fp{T{2}, T{1}};
  Real3<T> acc{};
  for (auto _ : state) {
    for (size_t i = 0; i < kPairs; ++i) {
      acc += SphereSphereForce(p1[i], r1[i], p2[i], r2[i], fp);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPairs));
}

void BM_ForceFp64(benchmark::State& state) { ForceThroughput<double>(state); }
BENCHMARK(BM_ForceFp64);

void BM_ForceFp32(benchmark::State& state) { ForceThroughput<float>(state); }
BENCHMARK(BM_ForceFp32);

void BM_Displacement(benchmark::State& state) {
  Random rng(9);
  const size_t kN = 4096;
  std::vector<Double3> forces(kN);
  for (auto& f : forces) {
    f = rng.UnitVector() * rng.Uniform(0.0, 100.0);
  }
  Double3 acc{};
  for (auto _ : state) {
    for (const auto& f : forces) {
      acc += ComputeDisplacement(f, 0.4, 0.01, 3.0);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN));
}
BENCHMARK(BM_Displacement);

// --- BENCH_cpu.json emission ------------------------------------------------

constexpr double kDiameter = 8.0;
constexpr double kMeanNeighbors = 16.0;

/// Clustered-sphere population: `n` agents uniformly distributed in a ball
/// sized so the mean neighbor count within the interaction radius (= the
/// diameter, margin 0) is ~kMeanNeighbors. A ball, not a cube: box occupancy
/// then varies from dense core boxes to empty corners, which is the shape
/// the Morton-ordered box traversal is built for.
void FillClusteredSphere(ResourceManager* rm, size_t n, uint64_t seed) {
  const double ball_radius =
      kDiameter * std::cbrt(static_cast<double>(n) / kMeanNeighbors);
  const Double3 center{ball_radius, ball_radius, ball_radius};
  Random rng(seed);
  rm->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double r = ball_radius * std::cbrt(rng.Uniform());
    NewAgentSpec spec;
    spec.position = center + rng.UnitVector() * r;
    spec.diameter = kDiameter;
    rm->AddAgent(std::move(spec));
  }
}

struct PathTiming {
  double best_ms = 0.0;
  size_t force_evals = 0;
};

/// Best-of-`reps` wall time of one ComputeDisplacements pass. The grid is
/// already up to date and positions never change (displacements are only
/// buffered), so this isolates the force kernel both paths share a contract
/// for; the grid build is identical work on either path.
PathTiming TimePath(const ResourceManager& rm, const UniformGridEnvironment& env,
                    const Param& param, ExecMode mode, int reps,
                    MechanicalForcesOp* op) {
  PathTiming t;
  op->ComputeDisplacements(rm, env, param, mode);  // warm-up (buffer growth)
  t.force_evals = op->last_force_evaluations();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    op->ComputeDisplacements(rm, env, param, mode);
    best = std::min(best, timer.ElapsedMs());
  }
  t.best_ms = best;
  return t;
}

/// Max |Δ component| between two displacement buffers (same row order on
/// every CPU path — nothing here permutes agents).
double MaxAbsDelta(const std::vector<Double3>& ref,
                   const std::vector<Double3>& got) {
  double max_delta = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_delta = std::max(max_delta, std::fabs(got[i].x - ref[i].x));
    max_delta = std::max(max_delta, std::fabs(got[i].y - ref[i].y));
    max_delta = std::max(max_delta, std::fabs(got[i].z - ref[i].z));
  }
  return max_delta;
}

int WriteBenchJson(const std::string& path, size_t agents, int reps) {
  namespace json = biosim::obs::json;

  Param param;
  param.boundary_mode = BoundaryMode::kOpen;
  ResourceManager rm;
  FillClusteredSphere(&rm, agents, /*seed=*/1234);
  UniformGridEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);

  MechanicalForcesOp generic_op;
  MechanicalForcesOp fused_op;
  Param generic_param = param;
  generic_param.cpu_fast_path = false;
  Param fused_param = param;
  fused_param.cpu_fast_path = true;

  PathTiming generic =
      TimePath(rm, env, generic_param, ExecMode::kSerial, reps, &generic_op);
  PathTiming fused =
      TimePath(rm, env, fused_param, ExecMode::kSerial, reps, &fused_op);
  PathTiming fused_mt =
      TimePath(rm, env, fused_param, ExecMode::kParallel, reps, &fused_op);

  // The parity gate: both paths owe the identical (neighbor, d^2) visit
  // sequence, hence equal evaluation counts and bitwise-equal buffers.
  bool parity = generic.force_evals == fused.force_evals &&
                fused.force_evals == fused_mt.force_evals &&
                generic_op.displacements() == fused_op.displacements();

  // The vectorized kernel (physics/simd_force_kernel.h). Same traversal
  // and hit decisions, so the evaluation counts stay equal; the
  // displacement buffers owe a tolerance instead of bitwise equality
  // (FMA-contracted distances). One pass of FMA contraction is ulp-level
  // noise — 1e-12 is generous by orders.
  MechanicalForcesOp simd_op;
  Param simd_param = fused_param;
  simd_param.cpu_simd = true;

  PathTiming simd =
      TimePath(rm, env, simd_param, ExecMode::kSerial, reps, &simd_op);
  PathTiming simd_mt =
      TimePath(rm, env, simd_param, ExecMode::kParallel, reps, &simd_op);
  const double simd_delta =
      MaxAbsDelta(fused_op.displacements(), simd_op.displacements());
  parity = parity && simd.force_evals == fused.force_evals &&
           simd_mt.force_evals == fused.force_evals && simd_delta <= 1e-12;

  // A fused pass over the same population after a Z-order row permutation:
  // the cache-locality headroom of [simulation] zorder_every.
  SortAgentsByZOrder(rm, kDiameter, ExecMode::kSerial);
  env.Update(rm, param, ExecMode::kSerial);
  PathTiming fused_z =
      TimePath(rm, env, fused_param, ExecMode::kSerial, reps, &fused_op);
  parity = parity && fused_z.force_evals == fused.force_evals;

  json::Value doc = biosim::obs::MakeRunReport("bench_micro_force");
  doc.Set("bench", "bench_micro_force");
  doc.Set("schema", 1);
  json::Value sc = json::Value::MakeObject();
  sc.Set("workload", "clustered sphere, one mechanical-forces pass");
  sc.Set("agents", agents);
  sc.Set("diameter", kDiameter);
  sc.Set("mean_neighbors_target", kMeanNeighbors);
  sc.Set("reps", reps);
  sc.Set("force_evaluations", generic.force_evals);
  doc.Set("scenario", std::move(sc));
  json::Value cb = json::Value::MakeObject();
  cb.Set("wall_ms", generic.best_ms);
  doc.Set("callback_path", std::move(cb));
  json::Value fu = json::Value::MakeObject();
  fu.Set("wall_ms", fused.best_ms);
  fu.Set("wall_ms_parallel", fused_mt.best_ms);
  fu.Set("wall_ms_zorder", fused_z.best_ms);
  doc.Set("fused_path", std::move(fu));
  json::Value sv = json::Value::MakeObject();
  sv.Set("wall_ms", simd.best_ms);
  sv.Set("wall_ms_parallel", simd_mt.best_ms);
  sv.Set("max_abs_delta", simd_delta);
  doc.Set("simd_path", std::move(sv));
  doc.Set("speedup", fused.best_ms > 0.0 ? generic.best_ms / fused.best_ms : 0.0);
  doc.Set("speedup_simd", simd.best_ms > 0.0 ? fused.best_ms / simd.best_ms : 0.0);
  doc.Set("force_eval_parity", parity);

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s: callback %.2f ms, fused %.2f ms (%.2fx), "
              "fused parallel %.2f ms, fused+zorder %.2f ms, "
              "simd %.2f ms (%.2fx over fused, delta %.1e), "
              "simd parallel %.2f ms, %zu force evals, parity %s\n",
              path.c_str(), generic.best_ms, fused.best_ms,
              fused.best_ms > 0.0 ? generic.best_ms / fused.best_ms : 0.0,
              fused_mt.best_ms, fused_z.best_ms, simd.best_ms,
              simd.best_ms > 0.0 ? fused.best_ms / simd.best_ms : 0.0,
              simd_delta, simd_mt.best_ms, generic.force_evals,
              parity ? "OK" : "FAIL");
  if (!parity) {
    std::fprintf(stderr,
                 "error: a force path diverged from its reference "
                 "(evals generic %zu fused %zu simd %zu, simd delta %.3e)\n",
                 generic.force_evals, fused.force_evals, simd.force_evals,
                 simd_delta);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them.
  std::string json_path;
  size_t agents = 32768;
  int reps = 5;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      agents = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
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
  // suite so CI's perf-smoke job stays fast.
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (!json_path.empty()) {
    return WriteBenchJson(json_path, agents, reps);
  }
  return 0;
}
