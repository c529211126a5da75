// GPU offload of the mechanical-interaction operation (host side).
//
// Drop-in MechanicsBackend that reproduces the paper's pipeline per step:
//
//   [device] optional Z-order sort (Improvement II): the host SoA mirror is
//            sorted and the device is charged a modeled thrust-style radix
//            sort plus gather
//   [host]   grid geometry from the population bounds
//   [h2d]    copy only the attribute arrays the kernel needs (SoA, no
//            gather)
//   [device] ug_reset + ug_build  (grid construction on the GPU)
//   [device] mech kernel          (v0/v1/v2 per-agent thread, v3
//            shared-memory tile, or v4 warp-per-cell)
//   [d2h]    copy the displacement arrays back
//   [host]   apply displacements + bound space
//
// Behaviors and the neighborhood update stay on the host, so every step
// re-uploads the state they may have changed; the transfers are part of
// the measured co-processing cost (bench_ablation_gpu, ablation 6).
//
// The paper's versions (plus its future-work v4) are option presets
// (GpuMechanicsOptions::Version). Launches route through either the
// CUDA-like or the OpenCL-like front-end; both drive the same simulated
// device, mirroring the paper's dual port.
//
// Timing: all device work (kernels + transfers + the sort) accrues on the
// *simulated* clock (device().ElapsedMs()); see EXPERIMENTS.md for how the
// harness reports it. Each phase is also a host-timed STAGE_SCOPE nested in
// "mechanical forces", beside its "(sim)" profile row.
#ifndef BIOSIM_GPU_GPU_MECHANICAL_OP_H_
#define BIOSIM_GPU_GPU_MECHANICAL_OP_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "gpu/grid_params.h"
#include "gpu/mech_device_state.h"
#include "gpusim/cuda_like.h"
#include "gpusim/opencl_like.h"
#include "physics/mechanics_backend.h"

namespace biosim::gpu {

enum class GpuBackendKind : uint8_t { kCudaLike, kOpenClLike };
enum class GpuPrecision : uint8_t { kFp64, kFp32 };

struct GpuMechanicsOptions {
  GpuBackendKind backend = GpuBackendKind::kCudaLike;
  GpuPrecision precision = GpuPrecision::kFp32;
  /// Improvement II: Z-order sort the agent SoA arrays each step (on the
  /// host mirror, charged to the device as a modeled radix sort).
  bool zorder_sort = false;
  /// Improvement III: use the shared-memory tile kernel.
  bool use_shared_memory = false;
  /// Paper future work (Section VI): parallelize the per-cell neighbor loop
  /// with a warp per cell instead of a thread per cell.
  bool neighbor_parallel = false;
  /// Threads per block / work-group size: 1..device.max_threads_per_block,
  /// and a multiple of 32 with neighbor_parallel (one warp per cell).
  size_t block_dim = 128;
  /// Warp-sampling stride for the performance counters (1 = exact); >= 1.
  int meter_stride = 1;
  /// Attach the compute-sanitizer-style analysis layer (gpusim/sanitizer.h)
  /// to the device: every launch is checked for races, out-of-bounds /
  /// never-written accesses and barrier divergence. Hazards accumulate in
  /// device().sanitizer()->report().
  bool sanitize = false;
  /// Diagnostic: build the uniform grid with the *racy* kernel variant
  /// (diagnostic_kernels.h — the linked-list push without its atomicExch).
  /// Exists to validate the sanitizer end to end: a sanitized run must
  /// report the race and biosim_run must exit non-zero. Never enable in a
  /// run whose results matter.
  bool racy_grid_build = false;
  /// Fixed grid box edge (0 = derive from largest diameter); benchmark B.
  /// Step throws std::invalid_argument when it is smaller than the
  /// interaction radius, as the CPU grid does.
  double fixed_box_length = 0.0;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::GTX1080Ti();

  /// The paper's GPU version ladder: 0 = FP64 baseline port, 1 = +FP32,
  /// 2 = +Z-order sorting, 3 = +shared memory. Version 4 is the paper's
  /// *future work* (neighbor-parallel: warp per cell) on top of version 2.
  /// Throws std::invalid_argument naming gpu_version outside 0..4.
  static GpuMechanicsOptions Version(int v,
                                     gpusim::DeviceSpec spec =
                                         gpusim::DeviceSpec::GTX1080Ti()) {
    if (v < 0 || v > 4) {
      throw std::invalid_argument("gpu_version must be in 0..4, got " +
                                  std::to_string(v));
    }
    GpuMechanicsOptions o;
    o.device = std::move(spec);
    o.precision = v >= 1 ? GpuPrecision::kFp32 : GpuPrecision::kFp64;
    o.zorder_sort = v >= 2;
    o.use_shared_memory = v == 3;
    o.neighbor_parallel = v == 4;
    return o;
  }
};

class GpuMechanicalOp : public MechanicsBackend {
 public:
  /// Throws std::invalid_argument, naming the field, for options no device
  /// launch could honor (see the field comments above).
  explicit GpuMechanicalOp(GpuMechanicsOptions options);

  void Step(ResourceManager& rm, const Environment& env, const Param& param,
            ExecMode mode, OpProfile* profile) override;

  const char* name() const override { return "gpu"; }
  /// The grid is rebuilt on the device each step. The kernels implement
  /// clamped and open space only and own the whole domain (no shards).
  bool needs_neighbor_queries() const override { return false; }

  const GpuMechanicsOptions& options() const { return options_; }
  gpusim::Device& device();
  const gpusim::Device& device() const;

  /// Simulated GPU time accumulated so far (kernels + transfers), ms.
  double SimulatedMs() const { return device().ElapsedMs(); }

  /// Last step's displacements in double precision (GPU-vs-CPU tests);
  /// empty after a step on an empty population.
  const std::vector<Double3>& last_displacements() const {
    return last_displacements_;
  }

 private:
  template <typename T>
  void StepImpl(ResourceManager& rm, const Param& param, ExecMode mode,
                OpProfile* profile);

  template <typename T>
  MechDeviceState<T>& state();

  /// Front-end-agnostic launch/copy helpers (dispatch on options_.backend).
  template <typename T>
  gpusim::DeviceBuffer<T> AllocBuffer(size_t n);
  template <typename T>
  void H2D(gpusim::DeviceBuffer<T>& dst, const std::vector<T>& src);
  template <typename T>
  void D2H(std::vector<T>& dst, const gpusim::DeviceBuffer<T>& src);
  /// `blocks` blocks of options_.block_dim threads: LaunchKernel on the
  /// CUDA-like front-end, an NDRange of blocks * block_dim work-items on the
  /// OpenCL-like one.
  void LaunchBlocks(const std::string& name, size_t blocks,
                    const std::function<void(gpusim::BlockCtx&)>& body,
                    bool block_parallel_safe = false);
  /// Enough blocks to cover `n_threads`; the kernel guards the tail.
  void LaunchN(const std::string& name, size_t n_threads,
               const std::function<void(gpusim::BlockCtx&)>& body,
               bool block_parallel_safe = false);

  GpuMechanicsOptions options_;
  std::variant<gpusim::cuda::Runtime, gpusim::opencl::CommandQueue> front_;

  MechDeviceState<float> state32_;
  MechDeviceState<double> state64_;

  std::vector<Double3> last_displacements_;
};

}  // namespace biosim::gpu

#endif  // BIOSIM_GPU_GPU_MECHANICAL_OP_H_
