// Micro-benchmarks: Eq. (1) force evaluation throughput in both precisions.
// BM_ForceFp32 is the float force law the GPU ladder's FP32 versions run;
// the FP32/FP64 gap here is the *compute* side of Improvement I, the
// device-side gap also includes halved memory traffic.
//
// `--json PATH` additionally writes BENCH_cpu.json — the perf-trajectory
// record CI archives per commit: wall time of one mechanical-forces pass
// over a clustered-sphere population through the generic callback path
// (the uniform grid behind a ForwardingEnvironment) and through the fused
// CSR kernel (physics/simd_force_kernel.h, docs/perf.md), plus the speedup.
// The two owe bitwise-identical displacement buffers (max_abs_delta == 0)
// and the same force-evaluation count; the run exits non-zero otherwise,
// so the CI perf-smoke job doubles as a parity gate.
// `--agents N` / `--reps N` resize the scenario (defaults: 32768 agents,
// best of 5 reps).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "../common.h"
#include "core/param.h"
#include "core/random.h"
#include "core/resource_manager.h"
#include "core/timer.h"
#include "obs/json.h"
#include "obs/report.h"
#include "physics/displacement.h"
#include "physics/interaction_force.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/forwarding_environment.h"
#include "spatial/uniform_grid.h"

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
/// diameter) is ~kMeanNeighbors. A ball, not a cube: box occupancy
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
PathTiming TimePath(const ResourceManager& rm, const Environment& env,
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
  // The callback oracle: the same grid, whose force windows the wrapper
  // does not forward.
  ForwardingEnvironment callback_env(std::make_unique<UniformGridEnvironment>());
  callback_env.Update(rm, param, ExecMode::kSerial);

  MechanicalForcesOp generic_op;
  MechanicalForcesOp fused_op;
  PathTiming generic =
      TimePath(rm, callback_env, param, ExecMode::kSerial, reps, &generic_op);
  PathTiming fused = TimePath(rm, env, param, ExecMode::kSerial, reps, &fused_op);
  const double delta =
      MaxAbsDelta(generic_op.displacements(), fused_op.displacements());
  const bool same_bits =
      generic_op.displacements().size() == fused_op.displacements().size() &&
      std::memcmp(generic_op.displacements().data(),
                  fused_op.displacements().data(),
                  fused_op.displacements().size() * sizeof(Double3)) == 0;
  PathTiming fused_mt =
      TimePath(rm, env, param, ExecMode::kParallel, reps, &fused_op);

  // The parity gate: both paths owe the identical (neighbor, d^2) visit
  // sequence and FP expressions, hence equal evaluation counts and
  // bitwise-equal buffers.
  bool parity = generic.force_evals == fused.force_evals &&
                fused.force_evals == fused_mt.force_evals && delta == 0.0 &&
                same_bits;

  json::Value doc = biosim::obs::MakeRunReport("bench_micro_force");
  doc.Set("bench", "bench_micro_force");
  doc.Set("schema", 2);
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
  fu.Set("max_abs_delta", delta);
  doc.Set("fused_path", std::move(fu));
  doc.Set("speedup", fused.best_ms > 0.0 ? generic.best_ms / fused.best_ms : 0.0);
  doc.Set("force_eval_parity", parity);

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s: callback %.2f ms, fused %.2f ms (%.2fx), "
              "fused parallel %.2f ms, %zu force evals, max delta %.1e, "
              "parity %s\n",
              path.c_str(), generic.best_ms, fused.best_ms,
              fused.best_ms > 0.0 ? generic.best_ms / fused.best_ms : 0.0,
              fused_mt.best_ms, generic.force_evals, delta,
              parity ? "OK" : "FAIL");
  if (!parity) {
    std::fprintf(stderr,
                 "error: the fused kernel diverged from the callback path "
                 "(evals %zu vs %zu, max delta %.3e, same bits %d)\n",
                 generic.force_evals, fused.force_evals, delta,
                 same_bits ? 1 : 0);
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
      agents = bench::FlagOrExit(app::ToCount<size_t>, "--agents", argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = bench::FlagOrExit(app::ToCount<int>, "--reps", argv[++i]);
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
