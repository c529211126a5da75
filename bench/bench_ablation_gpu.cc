// Ablations over the GPU offload's design choices (not a paper figure; these
// back the DESIGN.md decisions and explore the paper's future-work ideas).
//
//   1. block size        -- threads per block for the mech kernel
//   2. meter stride      -- counter-sampling accuracy vs simulation cost
//   3. backend parity    -- CUDA-like vs OpenCL-like front-end must agree
//   5. neighbor-parallel -- the Section-VI dynamic-parallelism hypothesis:
//                           thread-per-cell vs warp-per-cell across density
//   6. transfer share    -- per-step H2D/D2H bytes and their share of the
//                           simulated device time
//
// There is no ablation 4; 5 and 6 keep their numbers because the docs cite
// them.
#include "common.h"
#include "core/timer.h"
#include "gpusim/profiler.h"

namespace {

using namespace biosim;

struct RunOut {
  double device_ms;
  double wall_ms;
  double mech_kernel_ms;
};

RunOut RunB(gpu::GpuMechanicsOptions opts, size_t agents, double density,
            int iterations) {
  Param param;
  Simulation sim(param);
  sim.SetEnvironment(std::make_unique<NullEnvironment>());
  opts.fixed_box_length = 10.0;
  auto op = std::make_unique<gpu::GpuMechanicalOp>(opts);
  gpu::GpuMechanicalOp* op_ptr = op.get();
  sim.SetMechanicsBackend(std::move(op));
  bench::SetUpBenchmarkB(&sim, agents, density);
  Timer t;
  sim.Simulate(static_cast<uint64_t>(iterations));
  RunOut out;
  out.wall_ms = t.ElapsedMs();
  out.device_ms = op_ptr->SimulatedMs();
  gpusim::ProfileReport report(op_ptr->device());
  const auto* k = report.Find("mech_interaction");
  if (k == nullptr) {
    k = report.Find("mech_neighbor_parallel");
  }
  out.mech_kernel_ms = k != nullptr ? k->total_ms : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = bench::Options::Parse(argc, argv);
  size_t agents = opts.num_agents > 0 ? opts.num_agents : 30000;
  int iters = 3;

  bench::PrintHeader("Ablation 1 -- mech kernel block size (version 2)");
  std::printf("%10s %14s %16s\n", "block_dim", "device_ms(sim)", "mech_kernel_ms");
  for (size_t bd : {32, 64, 128, 256, 512}) {
    gpu::GpuMechanicsOptions o = gpu::GpuMechanicsOptions::Version(2);
    o.block_dim = bd;
    o.meter_stride = opts.meter_stride;
    RunOut r = RunB(o, agents, 27.0, iters);
    std::printf("%10zu %14.3f %16.3f\n", bd, r.device_ms, r.mech_kernel_ms);
  }
  std::printf(
      "(the timing model prices transactions/bytes/flops, not occupancy, so\n"
      "block size is performance-neutral here; it matters for correctness\n"
      "of the shared-memory and warp-per-cell kernels)\n");

  bench::PrintHeader(
      "Ablation 2 -- meter stride: simulated-time estimate vs wall cost");
  std::printf("%8s %14s %16s %12s\n", "stride", "device_ms(sim)",
              "mech_kernel_ms", "wall_ms");
  for (int stride : {1, 2, 4, 8, 16, 32}) {
    gpu::GpuMechanicsOptions o = gpu::GpuMechanicsOptions::Version(2);
    o.meter_stride = stride;
    RunOut r = RunB(o, agents, 27.0, iters);
    std::printf("%8d %14.3f %16.3f %12.1f\n", stride, r.device_ms,
                r.mech_kernel_ms, r.wall_ms);
  }

  bench::PrintHeader("Ablation 3 -- CUDA-like vs OpenCL-like front-end");
  for (auto [name, kind] :
       {std::pair{"cuda-like", gpu::GpuBackendKind::kCudaLike},
        std::pair{"opencl-like", gpu::GpuBackendKind::kOpenClLike}}) {
    gpu::GpuMechanicsOptions o = gpu::GpuMechanicsOptions::Version(2);
    o.backend = kind;
    o.meter_stride = opts.meter_stride;
    RunOut r = RunB(o, agents, 27.0, iters);
    std::printf("%-12s device_ms(sim) %10.4f\n", name, r.device_ms);
  }
  std::printf("(identical numbers: both front-ends drive one engine)\n");

  bench::PrintHeader(
      "Ablation 5 -- thread-per-cell (v2) vs warp-per-cell (v4) by density");
  std::printf("%8s %8s | %12s %12s %8s\n", "agents", "density", "v2_kernel_ms",
              "v4_kernel_ms", "v4/v2");
  struct Case {
    size_t agents;
    double density;
  };
  for (Case c : {Case{1500, 500.0}, Case{2000, 200.0}, Case{30000, 27.0},
                 Case{30000, 6.0}}) {
    gpu::GpuMechanicsOptions v2 = gpu::GpuMechanicsOptions::Version(2);
    gpu::GpuMechanicsOptions v4 = gpu::GpuMechanicsOptions::Version(4);
    // Small populations are metered exactly: sampled counters are too noisy
    // with only a few hundred warps.
    v2.meter_stride = v4.meter_stride = c.agents <= 2000 ? 1 : opts.meter_stride;
    RunOut r2 = RunB(v2, c.agents, c.density, iters);
    RunOut r4 = RunB(v4, c.agents, c.density, iters);
    std::printf("%8zu %8.0f | %12.4f %12.4f %8.2f\n", c.agents, c.density,
                r2.mech_kernel_ms, r4.mech_kernel_ms,
                r4.mech_kernel_ms / r2.mech_kernel_ms);
  }
  std::printf(
      "(warp-per-cell wins where small, dense populations leave the\n"
      "thread-per-cell chain walk latency-bound -- the paper's Section VI\n"
      "dynamic-parallelism hypothesis)\n");

  bench::PrintHeader("Ablation 6 -- per-step transfer share (version 1)");
  {
    // The paper keeps behaviors and the neighborhood update on the host,
    // so every step uploads the attribute arrays and downloads the
    // displacements: the co-processing overhead, read from the transfer
    // counters and the simulated-time profile rows the step records.
    Param param;
    param.max_bound = 400.0;
    const int steps = 10;
    Simulation sim(param);
    sim.SetEnvironment(std::make_unique<NullEnvironment>());
    gpu::GpuMechanicsOptions o = gpu::GpuMechanicsOptions::Version(1);
    o.meter_stride = opts.meter_stride;
    auto op = std::make_unique<gpu::GpuMechanicalOp>(o);
    gpu::GpuMechanicalOp* op_ptr = op.get();
    sim.SetMechanicsBackend(std::move(op));
    sim.CreateRandomCells(agents, 10.0);
    sim.Simulate(static_cast<uint64_t>(steps));
    const auto& t = op_ptr->device().transfers();
    const double device_ms = op_ptr->SimulatedMs();
    const double h2d_ms = sim.profile().TotalMs("gpu h2d (sim)");
    const double d2h_ms = sim.profile().TotalMs("gpu d2h (sim)");
    auto share = [&](double ms) {
      return device_ms > 0.0 ? 100.0 * ms / device_ms : 0.0;
    };
    std::printf("%5s %14s %14s %14s %10s\n", "dir", "MB/step",
                "bytes/agent", "ms/step(sim)", "share");
    std::printf("%5s %14.3f %14.1f %14.4f %9.2f%%\n", "h2d",
                static_cast<double>(t.h2d_bytes) / steps / 1e6,
                static_cast<double>(t.h2d_bytes) / steps / agents,
                h2d_ms / steps, share(h2d_ms));
    std::printf("%5s %14.3f %14.1f %14.4f %9.2f%%\n", "d2h",
                static_cast<double>(t.d2h_bytes) / steps / 1e6,
                static_cast<double>(t.d2h_bytes) / steps / agents,
                d2h_ms / steps, share(d2h_ms));
    std::printf("device_ms(sim) per step %.4f; transfers %.2f%% of it\n",
                device_ms / steps, share(h2d_ms + d2h_ms));
    std::printf(
        "(the per-step PCIe traffic that fully-GPU frameworks avoid by\n"
        "keeping state resident, at the cost of moving behaviors and the\n"
        "neighborhood update onto the device)\n");
  }
  return 0;
}
