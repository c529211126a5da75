#include "gpu/gpu_mechanical_op.h"

#include <span>
#include <stdexcept>

#include "core/timer.h"
#include "gpu/diagnostic_kernels.h"
#include "obs/trace.h"
#include "gpu/grid_build_kernels.h"
#include "gpu/mech_kernel.h"
#include "gpu/device_sort.h"
#include "gpu/mech_kernel_neighbor_parallel.h"
#include "spatial/morton.h"
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
  if (options_.persistent_device_state && options_.zorder_sort) {
    throw std::invalid_argument(
        "persistent_device_state is incompatible with per-step zorder_sort");
  }
  device().SetMeterStride(options_.meter_stride);
  device().SetBlockParallel(options_.parallel_blocks);
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

void GpuMechanicalOp::LaunchN(
    const std::string& name, size_t n_threads,
    const std::function<void(gpusim::BlockCtx&)>& body,
    bool block_parallel_safe) {
  size_t block = options_.block_dim;
  std::visit(
      [&](auto& f) {
        if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                     gpusim::cuda::Runtime>) {
          f.LaunchKernel(name, gpusim::cuda::Runtime::BlocksFor(n_threads, block),
                         block, body, block_parallel_safe);
        } else {
          f.EnqueueNDRangeKernel(name, n_threads, block, body,
                                 block_parallel_safe);
        }
      },
      front_);
}

void GpuMechanicalOp::SortOnDevice(ResourceManager& rm, const Param& param,
                                   ExecMode mode) {
  size_t n = rm.size();
  AABBd bounds = rm.Bounds();
  double cell = rm.LargestDiameter() + param.interaction_radius_margin;
  if (!bounds.Valid() || cell <= 0.0) {
    return;
  }

  // Morton keys computed host-side (they depend on the just-updated host
  // positions), then sorted with the real device radix-sort kernels.
  std::vector<uint64_t> keys(n);
  std::vector<int32_t> identity(n);
  ParallelFor(mode, n, [&](size_t i) {
    keys[i] = MortonEncodePosition(rm.positions()[i], bounds.min, cell);
    identity[i] = static_cast<int32_t>(i);
  });

  if (sort_keys_.size() < n) {
    sort_keys_ = AllocBuffer<uint64_t>(n);
    sort_values_ = AllocBuffer<int32_t>(n);
  }
  H2D(sort_keys_, keys);
  H2D(sort_values_, identity);
  if (!sorter_) {
    sorter_ = std::make_unique<DeviceRadixSorter>(&device());
  }
  // Morton keys of any practical grid fit in 3*21 = 63 bits; grids under
  // 2^10 boxes per axis fit in 30, saving passes.
  int key_bits = 63;
  uint64_t max_key = 0;
  for (uint64_t k : keys) {
    max_key |= k;
  }
  key_bits = std::max(8, 64 - __builtin_clzll(max_key | 1));
  sorter_->SortPairs(&sort_keys_, &sort_values_, n, key_bits);

  std::vector<int32_t> perm32(n);
  D2H(perm32, sort_values_);
  std::vector<AgentIndex> perm(n);
  for (size_t i = 0; i < n; ++i) {
    perm[i] = static_cast<AgentIndex>(perm32[i]);
  }
  rm.ApplyPermutation(perm);
}

void GpuMechanicalOp::Step(ResourceManager& rm, const Environment& env,
                           const Param& param, ExecMode mode,
                           OpProfile* profile) {
  (void)env;  // the grid is rebuilt on the device each step
  if (param.boundary_mode == BoundaryMode::kTorus) {
    throw std::invalid_argument(
        "the GPU kernels implement the paper's clamped space; torus "
        "boundaries are CPU-only");
  }
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
    return;
  }

  // --- Improvement II: Z-order sort of the agent SoA arrays --------------
  // Functionally the sort happens on the host mirror (the arrays must stay
  // consistent engine-wide), but its *cost* is charged to the device as a
  // radix sort-by-key over the Morton codes plus a gather of the attribute
  // arrays — the state is already resident there and a device sort is how a
  // production implementation (thrust/CUB) does it.
  if (options_.zorder_sort) {
    TRACE_SCOPE("gpu z-order sort");
    double before = device().ElapsedMs();
    if (options_.device_radix_sort) {
      SortOnDevice(rm, param, mode);
    } else {
      Timer t;
      double cell = rm.LargestDiameter() + param.interaction_radius_margin;
      SortAgentsByZOrder(rm, cell, mode);
      host_sort_ms_ += t.ElapsedMs();

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
    if (profile != nullptr) {
      profile->Add("gpu z-order sort (sim)", device().ElapsedMs() - before);
    }
  }

  bool persistent = options_.persistent_device_state;
  bool need_upload = !persistent || resident_agents_ != n;
  if (need_upload) {
    resident_interaction_radius_ =
        rm.LargestDiameter() + param.interaction_radius_margin;
  }

  GridParams<T> g;
  if (persistent) {
    // Static grid over the bounded simulation cube: host positions may be
    // stale, but bound space guarantees the device positions stay inside.
    double box = options_.fixed_box_length > 0.0
                     ? options_.fixed_box_length
                     : std::max(resident_interaction_radius_, 1e-6);
    g.min_x = static_cast<T>(param.min_bound);
    g.min_y = static_cast<T>(param.min_bound);
    g.min_z = static_cast<T>(param.min_bound);
    g.box_length = static_cast<T>(box);
    int32_t per_axis = static_cast<int32_t>(
                           std::floor((param.max_bound - param.min_bound) / box)) +
                       1;
    g.nx = g.ny = g.nz = per_axis;
  } else {
    g = ComputeGridParams<T>(rm, param, options_.fixed_box_length);
  }
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
  // (skipped in persistent mode while the resident copy is current)
  double sim_before_h2d = device().ElapsedMs();
  if (need_upload) {
    TRACE_SCOPE("gpu h2d");
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
    resident_agents_ = n;
  }
  if (profile != nullptr) {
    profile->Add("gpu h2d (sim)", device().ElapsedMs() - sim_before_h2d);
  }

  // --- device: grid build + mechanics ------------------------------------
  device().ResetCache();  // conservatively cold per step
  double sim_before_kernels = device().ElapsedMs();
  {
  TRACE_SCOPE("gpu kernels");

  MechKernelParams<T> p;
  p.interaction_radius =
      persistent
          ? static_cast<T>(resident_interaction_radius_)
          : static_cast<T>(rm.LargestDiameter() +
                           param.interaction_radius_margin);
  p.repulsion = static_cast<T>(param.repulsion_coefficient);
  p.attraction = static_cast<T>(param.attraction_coefficient);
  p.dt = static_cast<T>(param.simulation_time_step);
  p.max_displacement = static_cast<T>(param.simulation_max_displacement);

  // Block-parallel safety: ug_reset and the mech kernels write disjoint
  // per-box / per-agent outputs, so their blocks are independent. ug_build
  // pushes onto the per-box linked lists with a cross-block atomicExch and
  // must stay block-sequential (the list order is functional state).
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
    std::visit(
        [&](auto& f) {
          if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                       gpusim::cuda::Runtime>) {
            f.LaunchKernel(
                "mech_neighbor_parallel", blocks, options_.block_dim,
                [&](gpusim::BlockCtx& blk) {
                  MechNeighborParallelKernelBody(blk, s, g, n, p);
                },
                /*block_parallel_safe=*/true);
          } else {
            f.EnqueueNDRangeKernel(
                "mech_neighbor_parallel", blocks * options_.block_dim,
                options_.block_dim,
                [&](gpusim::BlockCtx& blk) {
                  MechNeighborParallelKernelBody(blk, s, g, n, p);
                },
                /*block_parallel_safe=*/true);
          }
        },
        front_);
  } else if (options_.use_shared_memory) {
    int32_t tiles_x = (g.nx + kTileBoxes - 1) / kTileBoxes;
    int32_t tiles_y = (g.ny + kTileBoxes - 1) / kTileBoxes;
    int32_t tiles_z = (g.nz + kTileBoxes - 1) / kTileBoxes;
    size_t tiles = static_cast<size_t>(tiles_x) * static_cast<size_t>(tiles_y) *
                   static_cast<size_t>(tiles_z);
    // One block per tile: grid_dim = tiles, block_dim = options_.block_dim.
    std::visit(
        [&](auto& f) {
          if constexpr (std::is_same_v<std::decay_t<decltype(f)>,
                                       gpusim::cuda::Runtime>) {
            f.LaunchKernel(
                "mech_shared", tiles, options_.block_dim,
                [&](gpusim::BlockCtx& blk) {
                  MechSharedKernelBody(blk, s, g, n, p);
                },
                /*block_parallel_safe=*/true);
          } else {
            f.EnqueueNDRangeKernel(
                "mech_shared", tiles * options_.block_dim,
                options_.block_dim,
                [&](gpusim::BlockCtx& blk) {
                  MechSharedKernelBody(blk, s, g, n, p);
                },
                /*block_parallel_safe=*/true);
          }
        },
        front_);
  } else {
    LaunchN(
        "mech_interaction", n,
        [&](gpusim::BlockCtx& blk) { MechKernelBody(blk, s, g, n, p); },
        /*block_parallel_safe=*/true);
  }
  }
  if (profile != nullptr) {
    profile->Add("gpu kernels (sim)",
                 device().ElapsedMs() - sim_before_kernels);
  }

  if (persistent) {
    // Apply displacements on the device; the host mirror goes stale until
    // SyncToHost().
    T lo = static_cast<T>(param.min_bound);
    T hi = static_cast<T>(param.max_bound);
    const bool bound = param.boundary_mode != BoundaryMode::kOpen;
    LaunchN("apply_displacement", n, [&](gpusim::BlockCtx& blk) {
      blk.for_each_lane([&](gpusim::Lane& t) {
        size_t i = t.gtid();
        if (i >= n) {
          return;
        }
        auto apply = [&](gpusim::DeviceBuffer<T>& pos,
                         gpusim::DeviceBuffer<T>& out) {
          T v = t.ld(pos, i) + t.ld(out, i);
          if (bound) {
            v = std::clamp(v, lo, hi);
          }
          t.st(pos, i, v);
        };
        apply(s.x, s.out_x);
        apply(s.y, s.out_y);
        apply(s.z, s.out_z);
        CountFlops<T>(t, 9);
      });
    }, /*block_parallel_safe=*/true);
    return;
  }

  // --- D2H + host apply --------------------------------------------------
  TRACE_SCOPE("gpu d2h");
  double sim_before_d2h = device().ElapsedMs();
  std::vector<T> ox(n), oy(n), oz(n);
  D2H(ox, s.out_x);
  D2H(oy, s.out_y);
  D2H(oz, s.out_z);
  if (profile != nullptr) {
    profile->Add("gpu d2h (sim)", device().ElapsedMs() - sim_before_d2h);
  }

  last_displacements_.resize(n);
  auto& positions = rm.positions();
  ParallelFor(mode, n, [&](size_t i) {
    Double3 d{static_cast<double>(ox[i]), static_cast<double>(oy[i]),
              static_cast<double>(oz[i])};
    last_displacements_[i] = d;
    positions[i] = ApplyBoundSpace(positions[i] + d, param);
  });
}

void GpuMechanicalOp::SyncToHost(ResourceManager& rm) {
  size_t n = rm.size();
  if (!options_.persistent_device_state || resident_agents_ != n || n == 0) {
    return;
  }
  auto& positions = rm.positions();
  if (options_.precision == GpuPrecision::kFp32) {
    std::vector<float> x(n), y(n), z(n);
    D2H(x, state32_.x);
    D2H(y, state32_.y);
    D2H(z, state32_.z);
    for (size_t i = 0; i < n; ++i) {
      positions[i] = {static_cast<double>(x[i]), static_cast<double>(y[i]),
                      static_cast<double>(z[i])};
    }
  } else {
    std::vector<double> x(n), y(n), z(n);
    D2H(x, state64_.x);
    D2H(y, state64_.y);
    D2H(z, state64_.z);
    for (size_t i = 0; i < n; ++i) {
      positions[i] = {x[i], y[i], z[i]};
    }
  }
}

// Explicit instantiation keeps the template bodies out of the header.
template void GpuMechanicalOp::StepImpl<float>(ResourceManager&, const Param&,
                                               ExecMode, OpProfile*);
template void GpuMechanicalOp::StepImpl<double>(ResourceManager&, const Param&,
                                                ExecMode, OpProfile*);

}  // namespace biosim::gpu
