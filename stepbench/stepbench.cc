// Step benchmark program: builds one seeded workload through the public
// Simulation API, times Simulate(1) calls, checks the outputs, and prints
// one JSON object with the raw measurements as its last stdout line.
// run.py turns that object into the benchmark's metric line; BENCH.md
// defines the workloads, metrics and checks.
//
//   stepbench --workload NAME --seed N --steps N [--size full|tiny]
//             [--trace 0|1] [--trace-out PATH] [--digest-inputs]
//
// --trace 0 is the timed run. --trace 1 is the traced run: the same step
// sequence, cycling step kinds (traced at 1 worker, traced at the
// workload's worker count, plain at that count). After each traced step span
// the benchmark replays every layer on the step path through the layer's
// own entry point on objects it owns, so the live simulation is never
// touched by a replay and the run ends on the timed run's StateHash.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/behaviors/apoptosis.h"
#include "core/behaviors/grow_divide.h"
#include "core/behaviors/random_walk.h"
#include "core/behaviors/secretion.h"
#include "core/math.h"
#include "core/param.h"
#include "core/random.h"
#include "core/shard_runtime.h"
#include "core/simulation.h"
#include "core/state_hash.h"
#include "core/thread_pool.h"
#include "diffusion/diffusion_grid.h"
#include "gpu/gpu_mechanical_op.h"
#include "obs/json.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/null_environment.h"
#include "spatial/uniform_grid.h"

namespace {

using namespace biosim;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- workloads -------------------------------------------------------------

enum class Workload { kSparseCloud, kShardedCloud, kTissueTurnover, kGpuCloud };

struct Spec {
  const char* name;
  Workload workload;
  uint32_t workers;
  uint32_t shards;
  // Untimed steps ending every set-up: the first grid build, buffer growth
  // and the first OpenMP team happen here, not in timed steps.
  uint64_t warmup_steps;
};

// The cloud pair shares population, seed and science; only the pipeline
// (global grid vs 4 shards) differs, so both must end on one StateHash.
constexpr Spec kSpecs[] = {
    {"sparse_cloud", Workload::kSparseCloud, 2, 0, 10},
    {"sharded_cloud", Workload::kShardedCloud, 2, 4, 10},
    {"tissue_turnover", Workload::kTissueTurnover, 2, 0, 10},
    {"gpu_cloud", Workload::kGpuCloud, 1, 0, 3},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

bool IsCloud(Workload w) {
  return w == Workload::kSparseCloud || w == Workload::kShardedCloud;
}

// Random-walk cloud: torus of edge 1024 with diameter-8 agents gives
// 128^3 ~ 2.1M boxes for 32,768 agents, ~98% empty.
constexpr size_t kCloudAgents = 32768;
constexpr double kCloudEdge = 1024.0;
constexpr double kCloudDiameter = 8.0;
constexpr double kWalkSpeed = 60.0;
constexpr size_t kSecretionStride = 16;
constexpr double kSecretionRate = 0.5;
constexpr size_t kOxygenResolution = 32;

// Tissue: a jittered 32^3 lattice (spacing 9) in a clamped cube, diameters
// staggered across one cell cycle so divisions do not fall in lockstep.
constexpr size_t kTissuePerDim = 32;
constexpr double kTissueSpacing = 9.0;
constexpr double kTissueJitter = 1.0;
constexpr double kDivideDiameter = 10.0;
constexpr double kGrowthRate = 1000.0;
// Balances GrowDivide's births: at 2.55/h the tissue stays within ~5% of
// its start over 600 steps, while 2.5/h grows ~30% and 2.65/h shrinks ~45%.
constexpr double kApoptosisRate = 2.55;

// GPU ladder v2 at benchmark B's density 27 (diameter 10), agents held
// still so the density stays fixed.
constexpr size_t kGpuAgents = 16384;
constexpr double kGpuDiameter = 10.0;
constexpr double kGpuDensity = 27.0;
constexpr int kGpuVersion = 2;
constexpr int kGpuMeterStride = 8;
// The parity harness's bound for the FP32 GPU rows (src/app/parity.cc).
constexpr double kGpuFp32Tolerance = 2e-2;

// Scale-down factor of --size tiny (populations /64, edges /4).
constexpr size_t kTinyAgentDivisor = 64;
constexpr double kTinyEdgeDivisor = 4.0;

struct Inputs {
  Param param;
  std::vector<Double3> positions;
  std::vector<double> diameters;
};

// All benchmark randomness comes from `seed`: positions, diameters and the
// behaviors' RNG streams (Param::random_seed).
Inputs Generate(const Spec& spec, uint64_t seed, bool tiny) {
  Inputs in;
  in.param.random_seed = seed;
  in.param.num_threads = spec.workers;
  Random rng(SplitMix64::Mix(seed ^ 0x5354455042454e43ull));
  switch (spec.workload) {
    case Workload::kSparseCloud:
    case Workload::kShardedCloud: {
      const size_t n = tiny ? kCloudAgents / kTinyAgentDivisor : kCloudAgents;
      const double edge = tiny ? kCloudEdge / kTinyEdgeDivisor : kCloudEdge;
      in.param.boundary_mode = BoundaryMode::kTorus;
      in.param.min_bound = 0.0;
      in.param.max_bound = edge;
      for (size_t i = 0; i < n; ++i) {
        in.positions.push_back(rng.UniformInCube(0.0, edge));
        in.diameters.push_back(kCloudDiameter);
      }
      break;
    }
    case Workload::kTissueTurnover: {
      const size_t per_dim = tiny ? kTissuePerDim / 4 : kTissuePerDim;
      in.param.min_bound = 0.0;
      in.param.max_bound = static_cast<double>(per_dim) * kTissueSpacing;
      const double v_max = math::SphereVolume(kDivideDiameter);
      for (size_t x = 0; x < per_dim; ++x) {
        for (size_t y = 0; y < per_dim; ++y) {
          for (size_t z = 0; z < per_dim; ++z) {
            auto at = [&](size_t k) {
              return (static_cast<double>(k) + 0.5) * kTissueSpacing +
                     rng.Uniform(-kTissueJitter, kTissueJitter);
            };
            const double px = at(x);
            const double py = at(y);
            const double pz = at(z);
            in.positions.push_back({px, py, pz});
            // Volume uniform over one cycle [V/2, V): diameter in
            // [7.94, 10).
            in.diameters.push_back(
                math::SphereDiameter(rng.Uniform(0.5 * v_max, v_max)));
          }
        }
      }
      break;
    }
    case Workload::kGpuCloud: {
      const size_t n = tiny ? kGpuAgents / kTinyAgentDivisor : kGpuAgents;
      const double sphere = 4.0 / 3.0 * math::kPi * kGpuDiameter *
                            kGpuDiameter * kGpuDiameter;
      const double edge =
          std::cbrt(static_cast<double>(n) * sphere / kGpuDensity);
      in.param.simulation_max_displacement = 0.0;
      in.param.min_bound = 0.0;
      in.param.max_bound = edge;
      for (size_t i = 0; i < n; ++i) {
        in.positions.push_back(rng.UniformInCube(0.0, edge));
        in.diameters.push_back(kGpuDiameter);
      }
      break;
    }
  }
  return in;
}

gpu::GpuMechanicsOptions GpuOptions() {
  gpu::GpuMechanicsOptions o = gpu::GpuMechanicsOptions::Version(
      kGpuVersion, gpusim::DeviceSpec::TeslaV100());
  o.backend = gpu::GpuBackendKind::kCudaLike;
  o.meter_stride = kGpuMeterStride;
  o.fixed_box_length = kGpuDiameter;
  return o;
}

std::unique_ptr<Simulation> Build(const Spec& spec, const Inputs& in,
                                  uint32_t shards) {
  Param param = in.param;
  param.num_shards = shards;
  auto sim = std::make_unique<Simulation>(param);
  // Turnover reallocates no attribute array mid-run, so peak RSS follows
  // the population, not where a capacity doubling happens to fall.
  const size_t capacity = spec.workload == Workload::kTissueTurnover
                              ? 2 * in.positions.size()
                              : in.positions.size();
  sim->rm().Reserve(capacity);
  for (size_t i = 0; i < in.positions.size(); ++i) {
    sim->AddCell(in.positions[i], in.diameters[i]);
  }
  ResourceManager& rm = sim->rm();
  switch (spec.workload) {
    case Workload::kSparseCloud:
    case Workload::kShardedCloud:
      sim->AddDiffusionGrid(std::make_unique<DiffusionGrid>(
          "oxygen", param.min_bound, param.max_bound, kOxygenResolution,
          /*diffusion_coefficient=*/50.0, /*decay_constant=*/0.01));
      for (size_t i = 0; i < rm.size(); ++i) {
        rm.AttachBehavior(i, std::make_unique<RandomWalk>(kWalkSpeed));
        if (i % kSecretionStride == 0) {
          rm.AttachBehavior(
              i, std::make_unique<Secretion>("oxygen", kSecretionRate));
        }
      }
      break;
    case Workload::kTissueTurnover:
      for (size_t i = 0; i < rm.size(); ++i) {
        rm.AttachBehavior(
            i, std::make_unique<GrowDivide>(kDivideDiameter, kGrowthRate));
        rm.AttachBehavior(i, std::make_unique<Apoptosis>(kApoptosisRate));
      }
      break;
    case Workload::kGpuCloud:
      sim->SetEnvironment(std::make_unique<NullEnvironment>());
      sim->SetMechanicsBackend(
          std::make_unique<gpu::GpuMechanicalOp>(GpuOptions()));
      break;
  }
  return sim;
}

uint64_t DigestInputs(const Inputs& in) {
  uint64_t h = HashVec3s(in.positions);
  return HashDoubles(in.diameters, h);
}

// --- small helpers ---------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

void SetWorkers(Simulation& sim, uint32_t workers) {
  sim.param().num_threads = workers;
  SetNumThreads(workers);
}

// A copy of the live population without behaviors, for replays that
// mutate what they are given (the GPU op sorts and moves its rows).
void CopyPopulation(const ResourceManager& from, ResourceManager* to) {
  to->RestorePopulation(from.positions(), from.diameters(), from.volumes(),
                        from.adherences(), from.densities(),
                        from.tractor_forces(), from.uids(), from.next_uid());
}

// With max_displacement 0 the live GPU step's displacements are exactly
// zero on both sides, so the parity check re-runs one step on a copy of
// the final state with the default 3 um clamp: the GPU op's displacements
// must match a CPU ComputeDisplacements within the FP32 GPU tolerance.
Check GpuParity(const Simulation& sim) {
  Param param = sim.param();
  param.simulation_max_displacement = Param{}.simulation_max_displacement;

  ResourceManager cpu_rm;
  CopyPopulation(sim.rm(), &cpu_rm);
  UniformGridEnvironment grid;
  grid.Update(cpu_rm, param, ExecMode::kParallel);
  MechanicalForcesOp cpu_op;
  cpu_op.ComputeDisplacements(cpu_rm, grid, param, ExecMode::kParallel);

  ResourceManager gpu_rm;
  CopyPopulation(sim.rm(), &gpu_rm);
  NullEnvironment null_env;
  null_env.Update(gpu_rm, param, ExecMode::kParallel);
  gpu::GpuMechanicalOp gpu_op(GpuOptions());
  gpu_op.Step(gpu_rm, null_env, param, ExecMode::kParallel, nullptr);

  std::unordered_map<AgentUid, size_t> cpu_row;
  for (size_t i = 0; i < cpu_rm.size(); ++i) {
    cpu_row[cpu_rm.uids()[i]] = i;
  }
  const auto& gd = gpu_op.last_displacements();
  double max_delta = 0.0;
  double max_disp = 0.0;
  bool rows_match = gd.size() == cpu_rm.size();
  for (size_t i = 0; rows_match && i < gpu_rm.size(); ++i) {
    auto it = cpu_row.find(gpu_rm.uids()[i]);
    if (it == cpu_row.end()) {
      rows_match = false;
      break;
    }
    const Double3& c = cpu_op.displacements()[it->second];
    for (int k = 0; k < 3; ++k) {
      max_delta = std::max(max_delta, std::abs(gd[i][k] - c[k]));
      max_disp = std::max(max_disp, std::abs(c[k]));
    }
  }
  const bool ok = rows_match && max_delta <= kGpuFp32Tolerance &&
                  max_disp > 0.0;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "max |gpu - cpu| displacement %.3g (bound %.1g), max |cpu| "
                "%.3g, rows %s",
                max_delta, kGpuFp32Tolerance, max_disp,
                rows_match ? "matched" : "MISMATCHED");
  return {"gpu_vs_cpu_displacements", ok, buf};
}

// --- traced run ------------------------------------------------------------

struct Span {
  std::string name;
  int parent;
  uint64_t step;
  uint32_t workers;
  double start_us;
  double dur_us;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  template <typename F>
  double Record(const std::string& name, int parent, uint64_t step,
                uint32_t workers, F&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double dur =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    spans_.push_back(
        {name, parent, step, workers,
         std::chrono::duration<double, std::micro>(t0 - origin_).count(),
         dur});
    return dur / 1e3;
  }
  int last() const { return static_cast<int>(spans_.size()) - 1; }

  /// Chrome trace-event JSON; the worker count is the track.
  bool Write(const std::string& path) const {
    namespace json = obs::json;
    json::Value events = json::Value::MakeArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value args = json::Value::MakeObject();
      args.Set("id", static_cast<uint64_t>(i));
      args.Set("parent", s.parent);
      args.Set("step", s.step);
      json::Value e = json::Value::MakeObject();
      e.Set("name", s.name);
      e.Set("ph", "X");
      e.Set("pid", 1);
      e.Set("tid", s.workers);
      e.Set("ts", s.start_us);
      e.Set("dur", s.dur_us);
      e.Set("args", std::move(args));
      events.Append(std::move(e));
    }
    json::Value doc = json::Value::MakeObject();
    doc.Set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.Dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-layer samples, one series per worker count (index 0: 1 worker,
// index 1: the workload's own count).
struct Samples {
  std::map<std::string, std::vector<double>> at[2];
  void Add(int series, const std::string& key, double v) {
    at[series][key].push_back(v);
  }
  double Med(int series, const std::string& key) const {
    auto it = at[series].find(key);
    return it == at[series].end() ? 0.0 : Median(it->second);
  }
};

// The benchmark's own copies of each layer's state.
struct Replayers {
  UniformGridEnvironment grid;
  MechanicalForcesOp forces;
  std::unique_ptr<ShardRuntime> shards;
  std::unique_ptr<DiffusionGrid> oxygen;
  std::unique_ptr<gpu::GpuMechanicalOp> gpu_op;
  ResourceManager gpu_rm;
  NullEnvironment null_env;
};

// OpProfile operations whose per-step cost the traced run reports as the
// program's own view, beside the replayed spans.
const std::pair<const char*, const char*> kProfileOps[] = {
    {"cell behaviors", "profile.behaviors_ms"},
    {"commit", "profile.commit_ms"},
    {"neighborhood update", "profile.neighborhood_update_ms"},
    {"mechanical forces", "profile.mechanical_forces_ms"},
    {"diffusion", "profile.diffusion_ms"},
    {"partition", "profile.partition_ms"},
    {"halo exchange", "profile.halo_exchange_ms"},
    {"shard grids", "profile.shard_grids_ms"},
};

// Replay every layer on the step path after one traced step. Returns the
// summed replayed time (ms) so the caller can derive core.other_ms.
double ReplayLayers(const Spec& spec, Simulation& sim, Replayers& r,
                    Tracer& tr, int parent, uint64_t step, uint32_t workers,
                    int series, Samples& s, bool last) {
  const ExecMode mode = ExecMode::kParallel;
  const ResourceManager& rm = sim.rm();
  const Param& param = sim.param();
  double replayed = 0.0;
  const bool unsharded_cpu = spec.workload == Workload::kSparseCloud ||
                             spec.workload == Workload::kTissueTurnover;
  if (unsharded_cpu) {
    const double grid_ms = tr.Record(
        "spatial: UniformGridEnvironment::Update", parent, step, workers,
        [&] { r.grid.Update(rm, param, mode); });
    const double force_ms = tr.Record(
        "physics: MechanicalForcesOp::ComputeDisplacements", parent, step,
        workers, [&] { r.forces.ComputeDisplacements(rm, r.grid, param, mode); });
    const double evals = static_cast<double>(r.forces.last_force_evaluations());
    s.Add(series, "spatial.grid_update_ms", grid_ms);
    s.Add(series, "physics.forces_ms", force_ms);
    s.Add(series, "physics.force_evals", evals);
    s.Add(series, "physics.ns_per_force_eval",
          evals > 0.0 ? force_ms * 1e6 / evals : 0.0);
    replayed += grid_ms + force_ms;
    if (last) {
      size_t occupied = 0;
      for (size_t b = 0; b < r.grid.total_boxes(); ++b) {
        occupied += r.grid.box_count(b) > 0 ? 1 : 0;
      }
      s.Add(series, "spatial.boxes_total",
            static_cast<double>(r.grid.total_boxes()));
      s.Add(series, "spatial.boxes_occupied", static_cast<double>(occupied));
    }
  }
  if (spec.workload == Workload::kShardedCloud) {
    ShardRuntime& srt = *r.shards;
    const uint64_t msgs0 = srt.communicator().messages_sent();
    const uint64_t bytes0 = srt.communicator().bytes_sent();
    const double part_ms =
        tr.Record("shard: ShardRuntime::Repartition", parent, step, workers,
                  [&] { srt.Repartition(rm, param); });
    const double halo_ms =
        tr.Record("shard: ShardRuntime::ExchangeHalos", parent, step, workers,
                  [&] { srt.ExchangeHalos(rm, mode); });
    const double grids_ms =
        tr.Record("shard: ShardRuntime::UpdateGrids", parent, step, workers,
                  [&] { srt.UpdateGrids(rm, mode); });
    const double force_ms = tr.Record(
        "shard: MechanicalForcesOp::ComputeDisplacementsSharded", parent, step,
        workers, [&] {
          r.forces.ComputeDisplacementsSharded(
              rm, srt.ForceInputs(), srt.geometry().interaction_radius,
              srt.geometry().box_length, param, mode);
        });
    const double evals = static_cast<double>(r.forces.last_force_evaluations());
    s.Add(series, "shard.repartition_ms", part_ms);
    s.Add(series, "shard.halo_ms", halo_ms);
    s.Add(series, "shard.grids_ms", grids_ms);
    s.Add(series, "shard.forces_ms", force_ms);
    s.Add(series, "physics.forces_ms", force_ms);
    s.Add(series, "physics.force_evals", evals);
    s.Add(series, "physics.ns_per_force_eval",
          evals > 0.0 ? force_ms * 1e6 / evals : 0.0);
    s.Add(series, "shard.messages_per_step",
          static_cast<double>(srt.communicator().messages_sent() - msgs0));
    s.Add(series, "shard.halo_bytes_per_step",
          static_cast<double>(srt.communicator().bytes_sent() - bytes0));
    double ghosts = 0.0;
    for (uint64_t g : srt.ghosts_received()) {
      ghosts += static_cast<double>(g);
    }
    s.Add(series, "shard.ghosts_per_step", ghosts);
    double max_owned = 0.0;
    double sum_owned = 0.0;
    for (uint32_t k = 0; k < srt.shards(); ++k) {
      const auto owned = static_cast<double>(srt.owned_rows(k).size());
      max_owned = std::max(max_owned, owned);
      sum_owned += owned;
    }
    s.Add(series, "shard.load_imbalance",
          sum_owned > 0.0 ? max_owned * srt.shards() / sum_owned : 0.0);
    replayed += part_ms + halo_ms + grids_ms + force_ms;
  }
  if (DiffusionGrid* live = sim.diffusion_grid()) {
    *r.oxygen = *live;
    const double ms = tr.Record("diffusion: DiffusionGrid::Step", parent, step,
                                workers, [&] {
                                  r.oxygen->Step(param.simulation_time_step,
                                                 mode);
                                });
    s.Add(series, "diffusion.step_ms", ms);
    replayed += ms;
  }
  if (spec.workload == Workload::kGpuCloud) {
    CopyPopulation(rm, &r.gpu_rm);
    r.null_env.Update(r.gpu_rm, param, mode);
    gpusim::Device& dev = r.gpu_op->device();
    const double dev0 = dev.ElapsedMs();
    const gpusim::TransferStats xfer0 = dev.transfers();
    const size_t launches0 = dev.history().size();
    const double ms =
        tr.Record("gpu: GpuMechanicalOp::Step", parent, step, workers, [&] {
          r.gpu_op->Step(r.gpu_rm, r.null_env, param, mode, nullptr);
        });
    uint64_t dram = 0;
    uint64_t l2_hit = 0;
    uint64_t dram_read = 0;
    uint64_t lane_ops = 0;
    uint64_t slots = 0;
    uint64_t threads = 0;
    for (size_t k = launches0; k < dev.history().size(); ++k) {
      const gpusim::KernelStats& ks = dev.history()[k];
      dram += ks.DramBytes();
      l2_hit += ks.l2_read_hit_bytes;
      dram_read += ks.dram_read_bytes;
      lane_ops += ks.lane_ops_sum;
      slots += ks.warp_ops_slots;
      threads += ks.total_threads;
    }
    s.Add(series, "gpu.step_host_ms", ms);
    s.Add(series, "gpu.device_modeled_ms", dev.ElapsedMs() - dev0);
    s.Add(series, "gpu.h2d_bytes",
          static_cast<double>(dev.transfers().h2d_bytes - xfer0.h2d_bytes));
    s.Add(series, "gpu.d2h_bytes",
          static_cast<double>(dev.transfers().d2h_bytes - xfer0.d2h_bytes));
    s.Add(series, "gpu.dram_bytes", static_cast<double>(dram));
    s.Add(series, "gpu.l2_read_hit_pct",
          l2_hit + dram_read > 0
              ? 100.0 * static_cast<double>(l2_hit) /
                    static_cast<double>(l2_hit + dram_read)
              : 0.0);
    s.Add(series, "gpu.simd_efficiency",
          slots > 0 ? static_cast<double>(lane_ops) / static_cast<double>(slots)
                    : 0.0);
    s.Add(series, "gpusim.host_ns_per_thread",
          threads > 0 ? ms * 1e6 / static_cast<double>(threads) : 0.0);
    replayed += ms;
  }
  return replayed;
}

// Per-layer metric names in output order. Layers not on a workload's step
// path report 0 (BENCH.md).
const char* const kLayerMetrics[] = {
    "spatial.grid_update_ms", "spatial.boxes_total", "spatial.boxes_occupied",
    "physics.forces_ms", "physics.force_evals", "physics.ns_per_force_eval",
    "shard.repartition_ms", "shard.halo_ms", "shard.grids_ms",
    "shard.forces_ms", "shard.messages_per_step", "shard.halo_bytes_per_step",
    "shard.ghosts_per_step", "shard.load_imbalance", "diffusion.step_ms",
    "gpu.step_host_ms", "gpu.device_modeled_ms", "gpu.h2d_bytes",
    "gpu.d2h_bytes", "gpu.dram_bytes", "gpu.l2_read_hit_pct",
    "gpu.simd_efficiency", "gpusim.host_ns_per_thread",
};

// Layer -> the span metric whose 1-worker / N-worker ratio gives its
// scaling efficiency.
const std::pair<const char*, const char*> kScaling[] = {
    {"core.scaling_eff", "core.step_ms"},
    {"spatial.scaling_eff", "spatial.grid_update_ms"},
    {"physics.scaling_eff", "physics.forces_ms"},
    {"shard.scaling_eff", "shard.grids_ms"},
    {"diffusion.scaling_eff", "diffusion.step_ms"},
};

// The traced run's per-layer metrics from its samples (BENCH.md).
std::map<std::string, double> LayerMetrics(
    const Spec& spec, Simulation& sim, const Samples& samples,
    const std::vector<double>& other_ms, const std::vector<double>& births,
    const std::vector<double>& deaths, const std::vector<double>& plain_ms) {
  std::map<std::string, double> m;
  for (const char* name : kLayerMetrics) {
    m[name] = samples.Med(1, name);
  }
  const double total = m["spatial.boxes_total"];
  m["spatial.occupied_box_ratio"] =
      total > 0.0 ? m["spatial.boxes_occupied"] / total : 0.0;
  m["core.step_ms"] = samples.Med(1, "core.step_ms");
  m["core.other_ms"] = Median(other_ms);
  const double n = births.empty() ? 1.0 : static_cast<double>(births.size());
  m["core.births_per_step"] =
      std::accumulate(births.begin(), births.end(), 0.0) / n;
  m["core.deaths_per_step"] =
      std::accumulate(deaths.begin(), deaths.end(), 0.0) / n;
  const DiffusionGrid* oxygen = sim.diffusion_grid();
  m["diffusion.voxels"] =
      oxygen ? static_cast<double>(oxygen->num_voxels()) : 0.0;
  for (const auto& [eff, base] : kScaling) {
    const double t1 = samples.Med(0, base);
    const double tn = samples.Med(1, base);
    m[eff] = spec.workers > 1 && t1 > 0.0 && tn > 0.0
                 ? t1 / (static_cast<double>(spec.workers) * tn)
                 : 0.0;
  }
  for (const auto& op : kProfileOps) {
    m[op.second] = samples.Med(1, op.second);
  }
  const double plain = Median(plain_ms);
  m["trace.overhead_pct"] =
      plain > 0.0 ? 100.0 * (m["core.step_ms"] - plain) / plain : 0.0;
  return m;
}

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  uint64_t steps = 0;
  bool tiny = false;
  bool trace = false;
  bool digest_inputs = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload NAME --seed N "
               "--steps N [--size full|tiny] [--trace 0|1] [--trace-out "
               "PATH] [--digest-inputs]\n",
               why.c_str());
  std::exit(64);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + a);
      }
      return argv[++i];
    };
    auto integer = [&](const std::string& v) -> uint64_t {
      char* end = nullptr;
      const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') {
        Usage("not a non-negative integer: " + v);
      }
      return x;
    };
    if (a == "--workload") {
      const std::string v = value();
      o.spec = FindSpec(v);
      if (o.spec == nullptr) {
        Usage("unknown workload: " + v);
      }
    } else if (a == "--seed") {
      o.seed = integer(value());
      have_seed = true;
    } else if (a == "--steps") {
      o.steps = integer(value());
    } else if (a == "--size") {
      const std::string v = value();
      if (v != "full" && v != "tiny") {
        Usage("unknown size: " + v);
      }
      o.tiny = v == "tiny";
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        Usage("--trace takes 0 or 1");
      }
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--digest-inputs") {
      o.digest_inputs = true;
    } else {
      Usage("unknown argument: " + a);
    }
  }
  if (o.spec == nullptr || !have_seed) {
    Usage("--workload and --seed are required");
  }
  if (!o.digest_inputs && o.steps == 0) {
    Usage("--steps must be at least 1");
  }
  return o;
}

// Set-ups per run; setup_s is their median, which drops a cold first
// construction, and the last set-up's simulation is the one timed.
constexpr int kSetups = 7;

int Run(const Options& o) {
  const Spec& spec = *o.spec;
  const Inputs inputs = Generate(spec, o.seed, o.tiny);
  if (o.digest_inputs) {
    obs::json::Value out = obs::json::Value::MakeObject();
    out.Set("workload", spec.name);
    out.Set("seed", o.seed);
    out.Set("agents", static_cast<uint64_t>(inputs.positions.size()));
    out.Set("inputs_digest", Hex(DigestInputs(inputs)));
    std::printf("%s\n", out.Dump().c_str());
    return 0;
  }
  SetNumThreads(spec.workers);
  std::vector<Check> checks;

  // Set-up, repeated: the median absorbs a cold first construction, and
  // every repetition must reach the same warmed-up state.
  std::vector<double> setup_s;
  std::vector<uint64_t> setup_hashes;
  std::unique_ptr<Simulation> sim;
  for (int r = 0; r < kSetups; ++r) {
    sim.reset();
    const auto t0 = Clock::now();
    sim = Build(spec, inputs, spec.shards);
    sim->Simulate(spec.warmup_steps);
    setup_s.push_back(MsSince(t0) / 1e3);
    setup_hashes.push_back(sim->StateHash());
  }
  const bool setups_agree =
      std::all_of(setup_hashes.begin(), setup_hashes.end(),
                  [&](uint64_t h) { return h == setup_hashes.front(); });
  checks.push_back({"setup_repeatable", setups_agree,
                    "warm-up StateHash " + Hex(setup_hashes.front()) +
                        (setups_agree ? " on every set-up" : " differs")});

  if (IsCloud(spec.workload)) {
    // The other pipeline of the cloud pair, on a separate instance: the
    // sharded and unsharded steps must reach one StateHash.
    const uint32_t twin_shards = spec.shards == 0 ? 4 : 0;
    auto twin = Build(spec, inputs, twin_shards);
    twin->Simulate(spec.warmup_steps);
    const uint64_t h = twin->StateHash();
    twin.reset();
    const bool ok = h == setup_hashes.front();
    checks.push_back({"sharded_matches_unsharded", ok,
                      "num_shards " + std::to_string(twin_shards) +
                          " twin hash " + Hex(h) +
                          (ok ? " matches" : " DIFFERS")});
  }

  Simulation& s = *sim;
  uint64_t failed_steps = 0;
  std::string step_error;
  // Plain steps only: every step of the timed run, one in `cycle` of the
  // traced run.
  std::vector<double> timed_ms;
  std::vector<double> timed_agents;

  Tracer tracer;
  Samples samples;
  Replayers rep;
  std::vector<double> births;
  std::vector<double> deaths;
  if (o.trace) {
    if (spec.shards > 0) {
      rep.shards =
          std::make_unique<ShardRuntime>(spec.shards, s.param().shard_balance);
    }
    if (DiffusionGrid* g = s.diffusion_grid()) {
      rep.oxygen = std::make_unique<DiffusionGrid>(*g);
    }
    if (spec.workload == Workload::kGpuCloud) {
      rep.gpu_op = std::make_unique<gpu::GpuMechanicalOp>(GpuOptions());
    }
  }
  // Traced-run step kinds, in cycle order: traced at 1 worker (CPU
  // workloads only), traced at the workload's count, plain at that count.
  // The plain step follows replays at its own worker count, while the
  // traced step at that count bears the switch back from 1 worker, so
  // trace.overhead_pct errs high rather than low.
  enum class Kind { kTracedOneWorker, kTraced, kPlain };
  const std::vector<Kind> cycle =
      spec.workers > 1
          ? std::vector<Kind>{Kind::kTracedOneWorker, Kind::kTraced,
                              Kind::kPlain}
          : std::vector<Kind>{Kind::kTraced, Kind::kPlain};
  std::vector<double> other_ms;

  for (uint64_t i = 0; i < o.steps; ++i) {
    const Kind kind = o.trace ? cycle[i % cycle.size()] : Kind::kPlain;
    const uint32_t workers =
        kind == Kind::kTracedOneWorker ? 1 : spec.workers;
    if (o.trace) {
      SetWorkers(s, workers);
    }
    const double agents = static_cast<double>(s.rm().size());
    const AgentUid uid0 = s.rm().next_uid();
    std::vector<double> op0;
    if (kind == Kind::kTraced) {
      for (const auto& op : kProfileOps) {
        op0.push_back(s.profile().TotalMs(op.first));
      }
    }
    double ms = 0.0;
    try {
      if (kind == Kind::kPlain) {
        const auto t0 = Clock::now();
        s.Simulate(1);
        ms = MsSince(t0);
      } else {
        ms = tracer.Record("step: Simulation::Simulate(1)", -1, s.step(),
                           workers, [&] { s.Simulate(1); });
      }
    } catch (const std::exception& e) {
      failed_steps = o.steps - i;
      step_error = e.what();
      break;
    }
    const double born = static_cast<double>(s.rm().next_uid() - uid0);
    births.push_back(born);
    deaths.push_back(agents + born - static_cast<double>(s.rm().size()));
    if (kind == Kind::kPlain) {
      timed_ms.push_back(ms);
      timed_agents.push_back(agents);
      continue;
    }
    const int series = kind == Kind::kTraced ? 1 : 0;
    const bool last = i + cycle.size() >= o.steps;
    const double replayed =
        ReplayLayers(spec, s, rep, tracer, tracer.last(), s.step() - 1,
                     workers, series, samples, last);
    samples.Add(series, "core.step_ms", ms);
    if (kind == Kind::kTraced) {
      other_ms.push_back(ms - replayed);
      for (size_t j = 0; j < op0.size(); ++j) {
        samples.Add(1, kProfileOps[j].second,
                    s.profile().TotalMs(kProfileOps[j].first) - op0[j]);
      }
    }
  }
  if (failed_steps > 0) {
    checks.push_back({"steps_complete", false, "a step threw: " + step_error});
  }
  const uint64_t final_hash = s.StateHash();
  if (spec.workload == Workload::kGpuCloud && failed_steps == 0) {
    checks.push_back(GpuParity(s));
  }

  namespace json = obs::json;
  auto list = [](const std::vector<double>& v) {
    json::Value a = json::Value::MakeArray();
    for (double x : v) {
      a.Append(x);
    }
    return a;
  };
  json::Value out = json::Value::MakeObject();
  out.Set("workload", spec.name);
  out.Set("seed", o.seed);
  out.Set("size", o.tiny ? "tiny" : "full");
  out.Set("trace", o.trace);
  out.Set("workers", spec.workers);
  out.Set("shards", spec.shards);
  out.Set("warmup_steps", spec.warmup_steps);
  out.Set("steps", o.steps);
  out.Set("failed_steps", failed_steps);
  out.Set("final_step", s.step());
  out.Set("final_agents", static_cast<uint64_t>(s.rm().size()));
  out.Set("state_hash", Hex(final_hash));
  out.Set("peak_rss_mb", PeakRssMb());
  out.Set("setup_s", list(setup_s));
  out.Set("step_ms", list(timed_ms));
  out.Set("step_agents", list(timed_agents));
  json::Value checks_json = json::Value::MakeArray();
  for (const Check& c : checks) {
    json::Value v = json::Value::MakeObject();
    v.Set("name", c.name);
    v.Set("ok", c.ok);
    v.Set("detail", c.detail);
    checks_json.Append(std::move(v));
  }
  out.Set("checks", std::move(checks_json));
  if (o.trace) {
    json::Value layers = json::Value::MakeObject();
    for (const auto& [name, v] : LayerMetrics(spec, s, samples, other_ms,
                                              births, deaths, timed_ms)) {
      layers.Set(name, v);
    }
    out.Set("per_layer", std::move(layers));
    if (!o.trace_out.empty() && !tracer.Write(o.trace_out)) {
      std::fprintf(stderr, "stepbench: cannot write trace %s\n",
                   o.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  try {
    return Run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s\n", e.what());
    return 1;
  }
}
