// Micro-benchmarks: throughput of the GPU simulator itself (the coalescer,
// the L2 simulation, and functional SIMT execution). These bound how large
// a device workload the simulator can meter per wall-second, which is what
// the figure benches' --meter-stride flag trades against.
//
// `--json PATH` additionally writes BENCH_gpusim.json — the perf-trajectory
// record CI archives per commit: the metered-path throughput (threads/s of a
// fully metered saxpy, the quantity the batched access-stream refactor
// targets), the sampled-path throughput (threads/s of a mechanics-shaped
// gather kernel at meter_stride 8, the regime every figure bench runs in),
// the unmetered-path throughput (the same gather at a stride that meters
// only warp 0, so nearly every warp runs the unchecked lane) and the wall
// time of a scaled-down Fig. 8 benchmark-A run. Set
// BIOSIM_BENCH_BASELINE_METERED=<threads/s> to also record a baseline and
// the speedup against it (used to pin the pre-refactor comparison).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../common.h"
#include "core/random.h"
#include "core/timer.h"
#include "gpusim/device.h"
#include "gpusim/memory_model.h"
#include "obs/json.h"
#include "obs/report.h"

namespace {

using namespace biosim;
using namespace biosim::gpusim;

void BM_L2CacheAccess(benchmark::State& state) {
  L2Cache l2(4ull << 20, 128, 16);
  Random rng(11);
  const size_t kN = 4096;
  std::vector<uint64_t> addrs(kN);
  for (auto& a : addrs) {
    a = rng.UniformInt(64ull << 20);
  }
  bool acc = false;
  for (auto _ : state) {
    for (uint64_t a : addrs) {
      acc ^= l2.Access(a);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN));
}
BENCHMARK(BM_L2CacheAccess);

void BM_CoalescerWarpAccess(benchmark::State& state) {
  MemoryModel mm(DeviceSpec::GTX1080Ti());
  KernelStats stats;
  Random rng(12);
  std::vector<LaneAccess> warp(32);
  const bool scattered = state.range(0) == 1;
  for (size_t l = 0; l < 32; ++l) {
    warp[l] = {scattered ? rng.UniformInt(64ull << 20) : (1ull << 20) + l * 4,
               4};
  }
  for (auto _ : state) {
    mm.AccessWarp(warp, false, &stats);
  }
  benchmark::DoNotOptimize(stats.dram_read_bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
  state.SetLabel(scattered ? "scattered" : "coalesced");
}
BENCHMARK(BM_CoalescerWarpAccess)->Arg(0)->Arg(1);

void BM_SimtFunctionalExecution(benchmark::State& state) {
  // Unmetered functional throughput: how fast the engine can run lanes when
  // the warp is not sampled (the common case under --meter-stride).
  const size_t n = 1u << 16;
  Device dev(DeviceSpec::GTX1080Ti());
  dev.SetMeterStride(1 << 30);  // effectively meter nothing after warp 0
  auto in = dev.Alloc<float>(n);
  auto out = dev.Alloc<float>(n);
  for (size_t i = 0; i < n; ++i) {
    in[i] = static_cast<float>(i % 17);
  }
  for (auto _ : state) {
    dev.Launch({"saxpy", n / 256, 256}, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        size_t i = t.gtid();
        t.st(out, i, t.ld(in, i) * 2.0f + 1.0f);
      });
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimtFunctionalExecution);

void BM_SimtMeteredExecution(benchmark::State& state) {
  const size_t n = 1u << 16;
  Device dev(DeviceSpec::GTX1080Ti());
  auto in = dev.Alloc<float>(n);
  auto out = dev.Alloc<float>(n);
  for (auto _ : state) {
    dev.Launch({"saxpy", n / 256, 256}, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        size_t i = t.gtid();
        float v = t.ld(in, i);
        t.flops32(2);
        t.st(out, i, v * 2.0f + 1.0f);
      });
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimtMeteredExecution);

/// A mechanics-shaped gather kernel: one thread per agent of a 32^3
/// lattice in index order, each walking its 27-cell neighborhood through an
/// index array (the uniform grid's successor chase), loading the
/// neighbor's x/y/z/diameter, accumulating a distance-gated pair term and
/// storing three outputs — the access mix and divergence of the GPU
/// mechanics kernel without its grid build.
class GatherKernel {
 public:
  static constexpr size_t kSide = 32;
  static constexpr size_t kAgents = kSide * kSide * kSide;
  static constexpr size_t kNeighbors = 27;

  explicit GatherKernel(Device* dev)
      : dev_(dev),
        x_(dev->Alloc<float>(kAgents)),
        y_(dev->Alloc<float>(kAgents)),
        z_(dev->Alloc<float>(kAgents)),
        d_(dev->Alloc<float>(kAgents)),
        nbr_(dev->Alloc<int32_t>(kAgents * kNeighbors)),
        out_x_(dev->Alloc<float>(kAgents)),
        out_y_(dev->Alloc<float>(kAgents)),
        out_z_(dev->Alloc<float>(kAgents)) {
    Random rng(13);
    for (size_t i = 0; i < kAgents; ++i) {
      const size_t cx = i % kSide;
      const size_t cy = (i / kSide) % kSide;
      const size_t cz = i / (kSide * kSide);
      x_[i] = static_cast<float>(10.0 * cx + rng.Uniform(-1.5, 1.5));
      y_[i] = static_cast<float>(10.0 * cy + rng.Uniform(-1.5, 1.5));
      z_[i] = static_cast<float>(10.0 * cz + rng.Uniform(-1.5, 1.5));
      d_[i] = 10.0f;
      size_t k = 0;
      for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx, ++k) {
            const int64_t nx = static_cast<int64_t>(cx) + dx;
            const int64_t ny = static_cast<int64_t>(cy) + dy;
            const int64_t nz = static_cast<int64_t>(cz) + dz;
            const int64_t side = static_cast<int64_t>(kSide);
            const bool inside = nx >= 0 && ny >= 0 && nz >= 0 && nx < side &&
                                ny < side && nz < side;
            nbr_[i * kNeighbors + k] =
                inside ? static_cast<int32_t>((nz * side + ny) * side + nx)
                       : -1;
          }
        }
      }
    }
  }

  void Launch() {
    dev_->Launch({"gather", kAgents / 128, 128}, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        const size_t i = t.gtid();
        const float xi = t.ld(x_, i);
        const float yi = t.ld(y_, i);
        const float zi = t.ld(z_, i);
        float fx = 0.0f, fy = 0.0f, fz = 0.0f;
        for (size_t k = 0; k < kNeighbors; ++k) {
          const int32_t j = t.ld(nbr_, i * kNeighbors + k);
          if (j < 0 || static_cast<size_t>(j) == i) {
            continue;
          }
          const size_t ju = static_cast<size_t>(j);
          const float dx = xi - t.ld(x_, ju);
          const float dy = yi - t.ld(y_, ju);
          const float dz = zi - t.ld(z_, ju);
          const float reach = t.ld(d_, ju);
          const float dist2 = dx * dx + dy * dy + dz * dz;
          t.flops32(8);
          if (dist2 < reach * reach) {
            const float s = reach - std::sqrt(dist2);
            fx += dx * s;
            fy += dy * s;
            fz += dz * s;
            t.flops32(10);
          }
        }
        t.st(out_x_, i, fx);
        t.st(out_y_, i, fy);
        t.st(out_z_, i, fz);
      });
    });
  }

 private:
  Device* dev_;
  DeviceBuffer<float> x_, y_, z_, d_;
  DeviceBuffer<int32_t> nbr_;
  DeviceBuffer<float> out_x_, out_y_, out_z_;
};

void BM_SimtSampledGather(benchmark::State& state) {
  Device dev(DeviceSpec::TeslaV100());
  dev.SetMeterStride(static_cast<int>(state.range(0)));
  GatherKernel kernel(&dev);
  for (auto _ : state) {
    kernel.Launch();
  }
  benchmark::DoNotOptimize(dev.KernelMs());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(GatherKernel::kAgents));
}
// Stride 8 is the figure benches' default; 1 << 20 meters only warp 0.
BENCHMARK(BM_SimtSampledGather)->Arg(8)->Arg(1 << 20);

// --- BENCH_gpusim.json emission -------------------------------------------

/// Best-of-5 rate of `threads` per call of `run(reps)`, after two warm-up
/// calls (buffer growth, cache arrays). Best-of is robust against
/// frequency ramping and noise, comparable to google-benchmark's
/// steady-state numbers.
template <typename Run>
double BestThreadsPerSec(size_t threads, int reps, Run&& run) {
  run(2);
  double best = 0.0;
  for (int batch = 0; batch < 5; ++batch) {
    biosim::Timer timer;
    run(reps);
    best = std::max(best, static_cast<double>(threads) * reps /
                              timer.ElapsedSeconds());
  }
  return best;
}

/// Threads/second through the fully metered path (meter_stride 1): every
/// warp runs the coalescer + L1/L2 simulation. This is the simulator's
/// counter-gathering hot path — the figure benches' wall clock at a given
/// --meter-stride is inversely proportional to it.
double MeteredThreadsPerSec() {
  const size_t n = 1u << 16;
  const int reps = 20;
  Device dev(DeviceSpec::GTX1080Ti());
  auto in = dev.Alloc<float>(n);
  auto out = dev.Alloc<float>(n);
  for (size_t i = 0; i < n; ++i) {
    in[i] = static_cast<float>(i % 17);
  }
  return BestThreadsPerSec(n, reps, [&](int k) {
    for (int r = 0; r < k; ++r) {
      dev.Launch({"saxpy", n / 256, 256}, [&](BlockCtx& blk) {
        blk.for_each_lane([&](auto& t) {
          size_t i = t.gtid();
          float v = t.ld(in, i);
          t.flops32(2);
          t.st(out, i, v * 2.0f + 1.0f);
        });
      });
    }
  });
}

/// Threads/second of the gather kernel on a V100 at `stride`. At 8 — the
/// default stride of every figure bench and the runner — one warp in eight
/// is metered and the rest run the unchecked lane; at 1 << 20 only warp 0
/// of the launch's 1024 is metered, so this is the unchecked lane's rate.
double GatherThreadsPerSec(int stride) {
  Device dev(DeviceSpec::TeslaV100());
  dev.SetMeterStride(stride);
  GatherKernel kernel(&dev);
  return BestThreadsPerSec(GatherKernel::kAgents, 5, [&](int k) {
    for (int r = 0; r < k; ++r) {
      kernel.Launch();
    }
  });
}

/// Wall seconds of a scaled-down Fig. 8 run: benchmark A (20^3 proliferating
/// cells, 5 iterations) through the full GPU v2 pipeline, metered exactly
/// (stride 1) so the metered path dominates as it does in the full figure
/// sweep.
double Fig8ProxyWallSeconds() {
  using namespace biosim;
  Param param;
  Simulation sim(param);
  sim.SetEnvironment(std::make_unique<NullEnvironment>());
  gpu::GpuMechanicsOptions gopts =
      gpu::GpuMechanicsOptions::Version(2, DeviceSpec::GTX1080Ti());
  gopts.meter_stride = 1;
  sim.SetMechanicsBackend(std::make_unique<gpu::GpuMechanicalOp>(gopts));
  bench::SetUpBenchmarkA(&sim, 20);
  biosim::Timer timer;
  sim.Simulate(5);
  return timer.ElapsedSeconds();
}

void WriteBenchJson(const std::string& path) {
  namespace json = biosim::obs::json;
  const double metered = MeteredThreadsPerSec();
  const double sampled = GatherThreadsPerSec(8);
  const double unmetered = GatherThreadsPerSec(1 << 20);
  const double fig8_s = Fig8ProxyWallSeconds();

  // The historical BENCH_gpusim.json keys (bench, schema, metered_path,
  // pre_refactor_baseline, fig8_proxy) are preserved for the CI trajectory
  // tooling; report_version + environment are the obs/report.h additions.
  json::Value doc = biosim::obs::MakeRunReport("bench_micro_memmodel");
  doc.Set("bench", "bench_micro_memmodel");
  doc.Set("schema", 1);
  json::Value mp = json::Value::MakeObject();
  mp.Set("workload", "saxpy 64k threads, meter_stride 1");
  mp.Set("threads_per_sec", std::floor(metered));
  doc.Set("metered_path", std::move(mp));
  const char* baseline = std::getenv("BIOSIM_BENCH_BASELINE_METERED");
  if (baseline != nullptr) {
    const double base = biosim::bench::FlagOrExit(
        biosim::app::ToPositive, "BIOSIM_BENCH_BASELINE_METERED", baseline);
    json::Value pb = json::Value::MakeObject();
    pb.Set("threads_per_sec", std::floor(base));
    pb.Set("speedup", metered / base);
    doc.Set("pre_refactor_baseline", std::move(pb));
  }
  json::Value sp = json::Value::MakeObject();
  sp.Set("workload",
         "27-neighbor gather, 32^3 threads, V100, meter_stride 8");
  sp.Set("threads_per_sec", std::floor(sampled));
  doc.Set("sampled_path", std::move(sp));
  json::Value up = json::Value::MakeObject();
  up.Set("workload",
         "27-neighbor gather, 32^3 threads, V100, meter_stride 2^20 (warp 0 "
         "metered)");
  up.Set("threads_per_sec", std::floor(unmetered));
  doc.Set("unmetered_path", std::move(up));
  json::Value fp = json::Value::MakeObject();
  fp.Set("workload",
         "benchmark A 20^3 cells, 5 iterations, GPU v2, meter_stride 1");
  fp.Set("wall_seconds", fig8_s);
  doc.Set("fig8_proxy", std::move(fp));

  if (!biosim::obs::WriteReportFile(doc, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf(
      "wrote %s: metered %.3g threads/s, sampled %.3g threads/s, unmetered "
      "%.3g threads/s, fig8 proxy %.3f s\n",
      path.c_str(), metered, sampled, unmetered, fig8_s);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our --json flag before google-benchmark sees (and rejects) it.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    WriteBenchJson(json_path);
  }
  return 0;
}
