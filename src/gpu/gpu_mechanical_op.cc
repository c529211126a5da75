#include "gpu/gpu_mechanical_op.h"

#include <span>
#include <stdexcept>
#include <string>

#include "gpu/diagnostic_kernels.h"
#include "gpu/grid_build_kernels.h"
#include "gpu/mech_kernel.h"
#include "gpu/mech_kernel_neighbor_parallel.h"
#include "obs/stage_scope.h"
#include "physics/displacement.h"
#include "spatial/zorder_sort.h"

namespace biosim::gpu {

namespace {

std::variant<gpusim::cuda::Runtime, gpusim::opencl::CommandQueue> MakeFront(
    const GpuMechanicsOptions& o) {
  if (o.backend == GpuBackendKind::kCudaLike) {
    return std::variant<gpusim::cuda::Runtime, gpusim::opencl::CommandQueue>(
        std::in_place_type<gpusim::cuda::Runtime>, o.device);
  }
  return std::variant<gpusim::cuda::Runtime, gpusim::opencl::CommandQueue>(
      std::in_place_type<gpusim::opencl::CommandQueue>, o.device);
}

}  // namespace

GpuMechanicalOp::GpuMechanicalOp(GpuMechanicsOptions options)
    : options_(std::move(options)), front_(MakeFront(options_)) {
  const size_t max_block =
      static_cast<size_t>(options_.device.max_threads_per_block);
  if (options_.block_dim == 0 || options_.block_dim > max_block) {
    throw std::invalid_argument(
        "block_dim must be in 1.." + std::to_string(max_block) + ", got " +
        std::to_string(options_.block_dim));
  }
  if (options_.neighbor_parallel && options_.block_dim % 32 != 0) {
    // Lanes past the last full warp would compute the next block's cell.
    throw std::invalid_argument(
        "block_dim must be a multiple of 32 with neighbor_parallel (one warp "
        "per cell), got " + std::to_string(options_.block_dim));
  }
  device().SetMeterStride(options_.meter_stride);
  if (options_.sanitize) {
    // Before any Alloc so every buffer gets full memcheck shadow coverage.
    device().EnableSanitizer();
  }
}

gpusim::Device& GpuMechanicalOp::device() {
  return std::visit([](auto& f) -> gpusim::Device& { return f.device(); },
                    front_);
}

const gpusim::Device& GpuMechanicalOp::device() const {
  return std::visit(
      [](const auto& f) -> const gpusim::Device& { return f.device(); },
      front_);
}

template <>
MechDeviceState<float>& GpuMechanicalOp::state<float>() {
  return state32_;
}
template <>
MechDeviceState<double>& GpuMechanicalOp::state<double>() {
  return state64_;
}

template <typename T>
gpusim::DeviceBuffer<T> GpuMechanicalOp::AllocBuffer(size_t n) {
  return std::visit(
      [&](auto& f) {
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                     gpusim::cuda::Runtime>) {
          return f.template Malloc<T>(n);
        } else {
          return f.template CreateBuffer<T>(n);
        }
      },
      front_);
}

template <typename T>
void GpuMechanicalOp::H2D(gpusim::DeviceBuffer<T>& dst,
                          const std::vector<T>& src) {
  std::visit(
      [&](auto& f) {
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                     gpusim::cuda::Runtime>) {
          f.MemcpyHostToDevice(dst, std::span<const T>(src));
        } else {
          f.EnqueueWriteBuffer(dst, std::span<const T>(src));
        }
      },
      front_);
}

template <typename T>
void GpuMechanicalOp::D2H(std::vector<T>& dst,
                          const gpusim::DeviceBuffer<T>& src) {
  std::visit(
      [&](auto& f) {
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                     gpusim::cuda::Runtime>) {
          f.MemcpyDeviceToHost(std::span<T>(dst), src);
        } else {
          f.EnqueueReadBuffer(std::span<T>(dst), src);
        }
      },
      front_);
}

void GpuMechanicalOp::LaunchBlocks(
    const std::string& name, size_t blocks,
    const std::function<void(gpusim::BlockCtx&)>& body,
    bool block_parallel_safe) {
  const size_t block = options_.block_dim;
  std::visit(
      [&](auto& f) {
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                     gpusim::cuda::Runtime>) {
          f.LaunchKernel(name, blocks, block, body, block_parallel_safe);
        } else {
          f.EnqueueNDRangeKernel(name, blocks * block, block, body,
                                 block_parallel_safe);
        }
      },
      front_);
}

void GpuMechanicalOp::LaunchN(
    const std::string& name, size_t n_threads,
    const std::function<void(gpusim::BlockCtx&)>& body,
    bool block_parallel_safe) {
  LaunchBlocks(name,
               gpusim::cuda::Runtime::BlocksFor(n_threads, options_.block_dim),
               body, block_parallel_safe);
}

void GpuMechanicalOp::Step(ResourceManager& rm, const Environment& env,
                           const Param& param, ExecMode mode,
                           OpProfile* profile) {
  (void)env;  // the grid is rebuilt on the device each step
  if (options_.precision == GpuPrecision::kFp32) {
    StepImpl<float>(rm, param, mode, profile);
  } else {
    StepImpl<double>(rm, param, mode, profile);
  }
}

template <typename T>
void GpuMechanicalOp::StepImpl(ResourceManager& rm, const Param& param,
                               ExecMode mode, OpProfile* profile) {
  size_t n = rm.size();
  if (n == 0) {
    last_displacements_.clear();
    return;
  }

  // --- Improvement II: Z-order sort of the agent SoA arrays --------------
  // Functionally the sort happens on the host mirror (the arrays must stay
  // consistent engine-wide), but its *cost* is charged to the device as a
  // radix sort-by-key over the Morton codes plus a gather of the attribute
  // arrays — how a production implementation (thrust/CUB) does it.
  if (options_.zorder_sort) {
    STAGE_SCOPE(profile, "gpu z-order sort", &device());
    double cell = rm.LargestDiameter();
    SortAgentsByZOrder(rm, cell, mode);

    uint64_t elem = options_.precision == GpuPrecision::kFp32 ? 4 : 8;
    // 4-pass 16-bit-digit radix sort over (key64, idx32) pairs ...
    uint64_t pass_bytes = static_cast<uint64_t>(n) * (8 + 4);
    uint64_t sort_read = 4 * pass_bytes;
    uint64_t sort_write = 4 * pass_bytes;
    // ... plus gathering the 8 attribute arrays through the permutation.
    uint64_t gather = static_cast<uint64_t>(n) * 8 * elem;
    device().AddModeledKernel("zorder_sort (modeled)", sort_read + gather,
                              sort_write + gather);
  }

  const GridGeometry geometry =
      GridGeometry::Derive(rm, param, options_.fixed_box_length);
  const GridParams<T> g = GridParams<T>::From(geometry);
  size_t total_boxes = g.total_boxes();

  MechDeviceState<T>& s = state<T>();
  if (s.agent_capacity < n) {
    size_t cap = std::max(n, s.agent_capacity * 2);
    s.x = AllocBuffer<T>(cap);
    s.y = AllocBuffer<T>(cap);
    s.z = AllocBuffer<T>(cap);
    s.diameter = AllocBuffer<T>(cap);
    s.adherence = AllocBuffer<T>(cap);
    s.tx = AllocBuffer<T>(cap);
    s.ty = AllocBuffer<T>(cap);
    s.tz = AllocBuffer<T>(cap);
    s.out_x = AllocBuffer<T>(cap);
    s.out_y = AllocBuffer<T>(cap);
    s.out_z = AllocBuffer<T>(cap);
    s.successors = AllocBuffer<int32_t>(cap);
    s.agent_capacity = cap;
  }
  if (s.box_capacity < total_boxes) {
    size_t cap = std::max(total_boxes, s.box_capacity * 2);
    s.box_start = AllocBuffer<int32_t>(cap);
    s.box_count = AllocBuffer<int32_t>(cap);
    s.box_capacity = cap;
  }

  // --- H2D: stage attribute arrays in kernel precision -------------------
  {
    STAGE_SCOPE(profile, "gpu h2d", &device());
    std::vector<T> staging(n);
    auto upload_axis = [&](gpusim::DeviceBuffer<T>& dst, auto getter) {
      const auto& positions = rm.positions();
      ParallelFor(mode, n,
                  [&](size_t i) { staging[i] = static_cast<T>(getter(positions[i])); });
      H2D(dst, staging);
    };
    upload_axis(s.x, [](const Double3& p) { return p.x; });
    upload_axis(s.y, [](const Double3& p) { return p.y; });
    upload_axis(s.z, [](const Double3& p) { return p.z; });

    auto upload_scalar = [&](gpusim::DeviceBuffer<T>& dst,
                             const std::vector<double>& src) {
      ParallelFor(mode, n, [&](size_t i) { staging[i] = static_cast<T>(src[i]); });
      H2D(dst, staging);
    };
    upload_scalar(s.diameter, rm.diameters());
    upload_scalar(s.adherence, rm.adherences());

    const auto& tractor = rm.tractor_forces();
    auto upload_tractor = [&](gpusim::DeviceBuffer<T>& dst, auto getter) {
      ParallelFor(mode, n,
                  [&](size_t i) { staging[i] = static_cast<T>(getter(tractor[i])); });
      H2D(dst, staging);
    };
    upload_tractor(s.tx, [](const Double3& v) { return v.x; });
    upload_tractor(s.ty, [](const Double3& v) { return v.y; });
    upload_tractor(s.tz, [](const Double3& v) { return v.z; });
  }

  // --- device: grid build + mechanics ------------------------------------
  device().ResetCache();  // conservatively cold per step
  {
    STAGE_SCOPE(profile, "gpu kernels", &device());

    MechKernelParams<T> p;
    p.interaction_radius = static_cast<T>(geometry.interaction_radius);
    p.repulsion = static_cast<T>(param.repulsion_coefficient);
    p.attraction = static_cast<T>(param.attraction_coefficient);
    p.dt = static_cast<T>(param.simulation_time_step);
    p.max_displacement = static_cast<T>(param.simulation_max_displacement);

    // Block-parallel safety: ug_reset and the mech kernels write disjoint
    // per-box / per-agent outputs, so their blocks are independent.
    // ug_build pushes onto the per-box linked lists with a cross-block
    // atomicExch and must stay block-sequential (the list order is
    // functional state).
    LaunchN(
        "ug_reset", total_boxes,
        [&](gpusim::BlockCtx& blk) { UgResetKernelBody(blk, s, total_boxes); },
        /*block_parallel_safe=*/true);
    if (options_.racy_grid_build) {
      // Diagnostic path: the non-atomic list push the sanitizer must catch.
      LaunchN("ug_build_racy", n, [&](gpusim::BlockCtx& blk) {
        RacyUgBuildKernelBody(blk, s, g, n);
      });
    } else {
      LaunchN("ug_build", n,
              [&](gpusim::BlockCtx& blk) { UgBuildKernelBody(blk, s, g, n); });
    }

    if (options_.neighbor_parallel) {
      // One warp per cell: block_dim/32 cells per block.
      size_t warps_per_block = options_.block_dim / 32;
      size_t blocks = (n + warps_per_block - 1) / warps_per_block;
      LaunchBlocks(
          "mech_neighbor_parallel", blocks,
          [&](gpusim::BlockCtx& blk) {
            MechNeighborParallelKernelBody(blk, s, g, n, p);
          },
          /*block_parallel_safe=*/true);
    } else if (options_.use_shared_memory) {
      int32_t tiles_x = (g.nx + kTileBoxes - 1) / kTileBoxes;
      int32_t tiles_y = (g.ny + kTileBoxes - 1) / kTileBoxes;
      int32_t tiles_z = (g.nz + kTileBoxes - 1) / kTileBoxes;
      size_t tiles = static_cast<size_t>(tiles_x) *
                     static_cast<size_t>(tiles_y) *
                     static_cast<size_t>(tiles_z);
      // One block per tile: grid_dim = tiles, block_dim = options_.block_dim.
      LaunchBlocks(
          "mech_shared", tiles,
          [&](gpusim::BlockCtx& blk) { MechSharedKernelBody(blk, s, g, n, p); },
          /*block_parallel_safe=*/true);
    } else {
      LaunchN(
          "mech_interaction", n,
          [&](gpusim::BlockCtx& blk) { MechKernelBody(blk, s, g, n, p); },
          /*block_parallel_safe=*/true);
    }
  }

  // --- D2H + host apply --------------------------------------------------
  STAGE_SCOPE(profile, "gpu d2h", &device());
  std::vector<T> ox(n), oy(n), oz(n);
  D2H(ox, s.out_x);
  D2H(oy, s.out_y);
  D2H(oz, s.out_z);

  last_displacements_.resize(n);
  auto& positions = rm.positions();
  ParallelFor(mode, n, [&](size_t i) {
    Double3 d{static_cast<double>(ox[i]), static_cast<double>(oy[i]),
              static_cast<double>(oz[i])};
    last_displacements_[i] = d;
    positions[i] = ApplyBoundSpace(positions[i] + d, param);
  });
}

// Explicit instantiation keeps the template bodies out of the header.
template void GpuMechanicalOp::StepImpl<float>(ResourceManager&, const Param&,
                                               ExecMode, OpProfile*);
template void GpuMechanicalOp::StepImpl<double>(ResourceManager&, const Param&,
                                                ExecMode, OpProfile*);

}  // namespace biosim::gpu
