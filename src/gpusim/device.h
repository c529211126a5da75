// SIMT execution simulator: functional GPU kernels with hardware counters.
//
// This is the repository's CUDA/OpenCL substitute (see DESIGN.md §1). Device
// code is written as generic C++ lambdas against the lane API below
// (BasicLane) and *actually executes* — outputs are real and tested against
// the CPU reference. While executing, every global access of a metered warp
// flows through a per-warp coalescer and a simulated L1/L2
// (memory_model.h), FLOPs and divergence are counted per warp, and the
// analytic model (timing.h) converts the counters into kernel time for the
// configured DeviceSpec.
//
// Execution model: blocks run in block order, or, for launches flagged
// block_parallel_safe, in contiguous chunks on the host thread pool whose
// metering is merged back in block order (Device::Launch), so the counters
// never depend on the worker count. Within a block, lanes of a warp run the
// body one after another but are *accounted* as lockstep SIMT — the i-th
// global access of each lane in a warp forms one memory instruction for
// coalescing, and per-lane op imbalance is charged as divergence. Barrier
// semantics use the standard loop-fission translation: one for_each_lane()
// region is the code between two __syncthreads().
//
// Every lane of every warp runs on the host, metered or not, so only the
// warps that are metered pay for metering. for_each_lane runs a warp that
// is metered, or any warp of a sanitized launch, through the checked lane
// (BasicLane<true>), whose accesses test the sanitizer and the metered
// flag and record inline into the warp's access stream; every other warp —
// seven in eight at meter stride 8 — runs through the unchecked lane
// (BasicLane<false>), whose loads, stores and atomics are the bare access.
// Each kernel body is one source instantiated for both; for_each_lane is
// flattened, so both bodies are inlined into their lane loops. See
// docs/gpusim.md, "Lane fast path".
//
//   dev.Launch({"my_kernel", blocks, 256}, [&](BlockCtx& blk) {
//     auto cache = blk.shared<float>(256);                 // __shared__
//     blk.for_each_lane([&](auto& t) {                     // phase 1
//       t.shared_st(cache, t.lane(), t.ld(input, t.gtid()));
//     });                                                  // __syncthreads()
//     blk.for_each_lane([&](auto& t) {                     // phase 2
//       ...
//     });
//   });
#ifndef BIOSIM_GPUSIM_DEVICE_H_
#define BIOSIM_GPUSIM_DEVICE_H_

#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/access_stream.h"
#include "gpusim/device_spec.h"
#include "gpusim/kernel_stats.h"
#include "gpusim/memory_model.h"
#include "gpusim/sanitizer.h"
#include "gpusim/timing.h"

namespace biosim::gpusim {

class Device;
class BlockCtx;
template <bool kChecked>
class BasicLane;

/// Base of the per-block shared-memory address space, disjoint from global
/// addresses (SharedArray::addr).
inline constexpr uint64_t kSharedBase = 1ull << 62;

/// Typed device allocation. Storage lives host-side (this is a simulator)
/// but is addressed through a device-global address space so the cache
/// simulation sees realistic addresses. Obtain via Device::Alloc.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  uint64_t addr(size_t i) const { return base_ + i * sizeof(T); }

  /// Direct host access — the simulator equivalent of unified memory; tests
  /// use it, kernels must go through the lane's ld/st so traffic is metered.
  /// Mutable access conservatively marks the buffer initialized for the
  /// sanitizer's never-written-read check (it cannot see host writes).
  T* data() {
    if (shadow_) {
      shadow_->MarkAll();
    }
    return storage_.data();
  }
  const T* data() const { return storage_.data(); }
  T& operator[](size_t i) {
    if (shadow_) {
      shadow_->Mark(i);
    }
    return storage_[i];
  }
  const T& operator[](size_t i) const { return storage_[i]; }

 private:
  friend class Device;
  template <bool>
  friend class BasicLane;
  std::vector<T> storage_;
  uint64_t base_ = 0;
  /// Element initialization shadow; only allocated while the device has a
  /// memcheck-enabled sanitizer attached (see Device::Alloc).
  std::shared_ptr<BufferShadow> shadow_;
};

/// Tracks one warp's accounting while its lanes execute. Global accesses
/// append one record each to per-lane streams (access_stream.h); Flush
/// walks the (kind, seq) rows in place in the exact legacy order (reads by
/// seq, then writes, then atomics; lane order within a row) and feeds each
/// row to the coalescer. One tracker serves every warp of a launch chunk
/// and every buffer retains its capacity, so the hot path stops allocating
/// once the longest lane of the chunk has run.
class WarpTracker {
 public:
  /// `line_shift` is log2 of the device's cache line (MemoryModel).
  explicit WarpTracker(int line_shift) : line_shift_(line_shift) {}

  /// Record access number `seq` of `kind` made by lane `warp_lane` of a
  /// metered warp. Inlined into the checked lane: a load or store records
  /// its cache line, an atomic its address (serialization compares
  /// addresses). An access that crosses a line — never a naturally aligned
  /// one — records kWide and the index of its (addr, bytes) in wide_.
  [[gnu::always_inline]] void Record(StreamKind kind, size_t warp_lane,
                                     size_t seq, uint64_t addr,
                                     uint32_t bytes) {
    const uint64_t line = addr >> line_shift_;
    uint64_t rec = kind == StreamKind::kAtomic ? addr : line;
    if (((addr + bytes - 1) >> line_shift_) != line) [[unlikely]] {
      rec = AddWide(addr, bytes);
    }
    stream_.Put(kind, warp_lane, seq, rec);
  }
  /// A metered access the sanitizer suppressed: a hole in its row.
  void Hole(StreamKind kind, size_t warp_lane, size_t seq) {
    stream_.Put(kind, warp_lane, seq, WarpAccessStream::kHole);
  }
  /// Close lane `warp_lane` of a metered warp: it made `seqs[k]` accesses
  /// of kind k, `ops` ops in all and `mem_ops` global memory ops (its
  /// dependent-memory-op chain).
  void EndLane(size_t warp_lane,
               const size_t (&seqs)[WarpAccessStream::kKinds], uint64_t ops,
               uint64_t mem_ops) {
    for (size_t k = 0; k < WarpAccessStream::kKinds; ++k) {
      stream_.SetEnd(k, warp_lane, seqs[k]);
    }
    lane_ops_[warp_lane] = ops;
    lane_mem_ops_[warp_lane] = mem_ops;
  }

  /// Consume a metered warp's access stream: coalesce every instruction row
  /// and either probe the caches immediately (defer == nullptr, the
  /// launch's first chunk) or buffer the line transactions into `defer` for
  /// an in-block-order replay (every later chunk). Divergence and atomic
  /// accounting land in `stats` either way, and the tracker is left empty
  /// for the next warp.
  void Flush(MemoryModel* mem, KernelStats* stats,
             MeterBuffer* defer = nullptr);

 private:
  /// Tag of a record that indexes wide_ instead of holding a line or an
  /// address (no device address reaches bit 63).
  static constexpr uint64_t kWide = uint64_t{1} << 63;

  /// Keep a line-crossing access in wide_; returns its record.
  [[gnu::noinline]] uint64_t AddWide(uint64_t addr, uint32_t bytes);
  /// The address of an atomic's record.
  uint64_t AtomicAddr(uint64_t rec) const {
    return rec & kWide ? wide_[rec & ~kWide].addr : rec;
  }
  /// `emit(line)` for each line of a record of `kind`.
  template <typename Emit>
  void EmitRecordLines(StreamKind kind, uint64_t rec, Emit&& emit) const {
    if (rec & kWide) [[unlikely]] {
      const LaneAccess& a = wide_[rec & ~kWide];
      MemoryModel::EmitLines(a.addr, a.bytes, line_shift_, emit);
    } else {
      emit(kind == StreamKind::kAtomic ? rec >> line_shift_ : rec);
    }
  }
  /// Count the row just coalesced into lines_ and probe or buffer it.
  void ConsumeLines(MemoryModel* mem, KernelStats* stats, MeterBuffer* defer,
                    bool write);

  int line_shift_;
  WarpAccessStream stream_;
  std::vector<LaneAccess> wide_;  // this warp's line-crossing accesses
  std::vector<uint64_t> lines_;   // one row's coalesced lines (scratch)
  uint64_t lane_ops_[32] = {};
  uint64_t lane_mem_ops_[32] = {};
};

/// Shared-memory array handle (per block). Addresses live in a per-block
/// "shared" address space used only for atomic-conflict detection.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(T* data, size_t n, uint64_t base,
              BufferShadow* shadow = nullptr)
      : data_(data), n_(n), base_(base), shadow_(shadow) {}
  size_t size() const { return n_; }
  uint64_t addr(size_t i) const { return base_ + i * sizeof(T); }
  T* raw() { return data_; }

 private:
  template <bool>
  friend class BasicLane;
  T* data_ = nullptr;
  size_t n_ = 0;
  uint64_t base_ = 0;
  BufferShadow* shadow_ = nullptr;  // owned by the BlockCtx; block lifetime
};

/// The view device code gets of one thread (CUDA thread / OpenCL work-item).
/// A kernel body is generic over it (`[&](auto& t)`), so each body has one
/// source and two instantiations:
///
/// * `BasicLane<true>`, the checked lane, runs every warp that is metered
///   and every warp of a sanitized launch: each access tests the sanitizer
///   and the warp's metered flag, numbers itself for coalescing, and a
///   metered access is recorded inline (WarpTracker::Record).
/// * `BasicLane<false>`, the unchecked lane, runs every other warp — seven
///   in eight at meter stride 8. Its loads, stores and atomics are the bare
///   access and its work annotations compile to nothing.
///
/// BlockCtx::for_each_lane picks the lane per warp; results are identical
/// either way, only the checked lane feeds the counters and the sanitizer.
template <bool kChecked>
class BasicLane {
 public:
  size_t lane() const { return lane_; }            // threadIdx.x
  size_t block() const { return block_; }          // blockIdx.x
  size_t block_dim() const { return block_dim_; }  // blockDim.x
  size_t grid_dim() const { return grid_dim_; }    // gridDim.x
  size_t gtid() const { return block_ * block_dim_ + lane_; }

  /// Account `n` floating-point operations (single precision).
  void flops32(uint64_t n) { Ops(n, &fp32_); }
  /// Account `n` floating-point operations (double precision).
  void flops64(uint64_t n) { Ops(n, &fp64_); }

  /// Metered global load. Always inlined into the kernel body. The checked
  /// lane adds one sanitizer test, one test of the warp's metered flag, the
  /// inline record of a metered access and the sequence bump; only the
  /// sanitizer hooks live out of line.
  template <typename T>
  [[gnu::always_inline]] T ld(const DeviceBuffer<T>& b, size_t i) {
    if constexpr (kChecked) {
      if (san_ != nullptr) [[unlikely]] {
        if (!SanCheck(san_, b, MemSpace::kGlobal, AccessKind::kRead, i,
                      block_, lane_, phase_)) {
          Suppressed(StreamKind::kRead);
          return T{};
        }
      }
      MeterGlobal(StreamKind::kRead, b.addr(i), sizeof(T));
    }
    assert(i < b.size());
    return b.storage_.data()[i];
  }

  /// Metered global store (same shape as ld).
  template <typename T>
  [[gnu::always_inline]] void st(DeviceBuffer<T>& b, size_t i, T v) {
    if constexpr (kChecked) {
      if (san_ != nullptr) [[unlikely]] {
        if (!SanCheck(san_, b, MemSpace::kGlobal, AccessKind::kWrite, i,
                      block_, lane_, phase_)) {
          Suppressed(StreamKind::kWrite);
          return;  // suppress the wild store so execution can continue
        }
      }
      MeterGlobal(StreamKind::kWrite, b.addr(i), sizeof(T));
    }
    assert(i < b.size());
    b.storage_.data()[i] = v;
  }

  /// Global atomic add; returns the old value.
  template <typename T>
  T atomic_add(DeviceBuffer<T>& b, size_t i, T v) {
    if (!CheckAtomic(b, MemSpace::kGlobal, i)) {
      return T{};
    }
    T old = b.storage_.data()[i];
    b.storage_.data()[i] = old + v;
    RecordAtomicSite(b.addr(i), sizeof(T), /*counts_as_mem_op=*/true);
    return old;
  }

  /// Global atomic exchange; returns the old value. (The uniform-grid build
  /// kernel's linked-list push is exactly this, Section IV-A.)
  template <typename T>
  T atomic_exch(DeviceBuffer<T>& b, size_t i, T v) {
    if (!CheckAtomic(b, MemSpace::kGlobal, i)) {
      return T{};
    }
    T old = b.storage_.data()[i];
    b.storage_.data()[i] = v;
    RecordAtomicSite(b.addr(i), sizeof(T), /*counts_as_mem_op=*/true);
    return old;
  }

  /// Shared-memory load/store: on-chip, so only bytes are charged (no L2 /
  /// DRAM involvement).
  template <typename T>
  T shared_ld(const SharedArray<T>& s, size_t i) {
    if constexpr (kChecked) {
      if (san_ != nullptr) [[unlikely]] {
        if (!SanCheck(san_, s, MemSpace::kShared, AccessKind::kRead, i,
                      block_, lane_, phase_)) {
          return T{};
        }
      }
      SharedTraffic(sizeof(T));
    }
    assert(i < s.size());
    return s.data_[i];
  }
  template <typename T>
  void shared_st(SharedArray<T>& s, size_t i, T v) {
    if constexpr (kChecked) {
      if (san_ != nullptr) [[unlikely]] {
        if (!SanCheck(san_, s, MemSpace::kShared, AccessKind::kWrite, i,
                      block_, lane_, phase_)) {
          return;
        }
      }
      SharedTraffic(sizeof(T));
    }
    assert(i < s.size());
    s.data_[i] = v;
  }

  /// Shared-memory atomic add (the Improvement III append counter). Returns
  /// the old value; warp-internal address conflicts serialize.
  template <typename T>
  T atomic_add_shared(SharedArray<T>& s, size_t i, T v) {
    if (!CheckAtomic(s, MemSpace::kShared, i)) {
      return T{};
    }
    T old = s.data_[i];
    s.data_[i] = old + v;
    // On-chip atomic: serializes but is not a global-latency memory op.
    RecordAtomicSite(s.addr(i), sizeof(T), /*counts_as_mem_op=*/false);
    return old;
  }

 private:
  friend class BlockCtx;
  /// The unchecked lane is built from its geometry alone.
  BasicLane(size_t lane, size_t block, size_t block_dim, size_t grid_dim,
            WarpTracker* wt = nullptr, KernelStats* raw = nullptr,
            Sanitizer* san = nullptr, size_t phase = 0, bool metered = false)
      : lane_(lane),
        block_(block),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        wt_(wt),
        raw_(raw),
        san_(san),
        phase_(phase),
        metered_(metered) {}

  /// The sanitizer's view of one access, shared by every global and shared
  /// load, store and atomic: an out-of-bounds index is reported and the
  /// access suppressed (returns false); otherwise reads and atomics check
  /// the never-written shadow (an atomic's RMW reads the old value — shared
  /// memory is garbage on real hardware even though the simulator zero-
  /// fills it), writes and atomics mark it, and the race detector records
  /// the access. Cold and out of line, and static so the caller's lane
  /// never has its address taken: with no sanitizer attached the lane lives
  /// in registers.
  template <template <typename> class Buf, typename T>
  [[gnu::cold, gnu::noinline]] static bool SanCheck(Sanitizer* san,
                                                    const Buf<T>& b,
                                                    MemSpace space,
                                                    AccessKind kind, size_t i,
                                                    size_t block, size_t lane,
                                                    size_t phase) {
    const uint32_t bytes = sizeof(T);
    if (i >= b.size()) {
      san->OnOutOfBounds(space, kind, block, lane, phase, b.base_, i,
                         b.size(), bytes);
      return false;
    }
    if (kind != AccessKind::kWrite && b.shadow_ && !b.shadow_->IsWritten(i)) {
      san->OnUninitializedRead(space, kind, block, lane, phase, b.addr(i),
                               bytes);
    }
    if (kind != AccessKind::kRead && b.shadow_) {
      b.shadow_->Mark(i);
    }
    san->OnAccess(space, kind, block, lane, phase, b.addr(i), bytes);
    return true;
  }

  /// Sanitizer gate of an atomic; false suppresses it. A suppressed global
  /// atomic leaves a hole in its row, as a load does; a suppressed shared
  /// atomic has always left the sequence as it was.
  template <template <typename> class Buf, typename T>
  bool CheckAtomic(const Buf<T>& b, MemSpace space, size_t i) {
    if constexpr (kChecked) {
      if (san_ != nullptr) [[unlikely]] {
        if (!SanCheck(san_, b, space, AccessKind::kAtomic, i, block_, lane_,
                      phase_)) {
          if (space == MemSpace::kGlobal) {
            Suppressed(StreamKind::kAtomic);
          }
          return false;
        }
      }
    }
    return true;
  }

  /// The seq counter of `kind`.
  size_t& Seq(StreamKind kind) {
    return kind == StreamKind::kRead    ? read_seq_
           : kind == StreamKind::kWrite ? write_seq_
                                        : atomic_seq_;
  }

  /// A metered global access: record it and charge the lane one op and one
  /// link of its dependent-memory-op chain. The sequence advances either
  /// way, so the lanes' i-th accesses stay one instruction.
  [[gnu::always_inline]] void MeterGlobal(StreamKind kind, uint64_t addr,
                                          uint32_t bytes) {
    size_t& seq = Seq(kind);
    if (metered_) {
      wt_->Record(kind, lane_ & 31, seq, addr, bytes);
      requested_[kind != StreamKind::kRead] += bytes;
      ++ops_;
      ++mem_ops_;
    }
    ++seq;
  }

  /// An access the sanitizer suppressed: a hole in its instruction, and
  /// the sequence still advances to keep the lanes aligned.
  [[gnu::cold]] void Suppressed(StreamKind kind) {
    size_t& seq = Seq(kind);
    if (metered_) {
      wt_->Hole(kind, lane_ & 31, seq);
    }
    ++seq;
  }

  void Ops(uint64_t n, uint64_t* counter) {
    if constexpr (kChecked) {
      if (metered_) {
        *counter += n;
        ops_ += n;
      }
    }
  }

  void RecordAtomicSite(uint64_t addr, uint32_t bytes,
                        bool counts_as_mem_op) {
    if constexpr (kChecked) {
      if (counts_as_mem_op) {
        // Global atomics round-trip to L2/DRAM, so they extend the per-lane
        // dependent-memory-op chain.
        MeterGlobal(StreamKind::kAtomic, addr, bytes);
        return;
      }
      // Shared atomics stay on-chip: an op and shared bytes, but no global
      // traffic and no chain link. The record serves the serialization
      // count alone (WarpTracker::Flush).
      if (metered_) {
        wt_->Record(StreamKind::kAtomic, lane_ & 31, atomic_seq_, addr, bytes);
        shared_bytes_ += bytes;
        ++ops_;
      }
      ++atomic_seq_;
    }
  }

  void SharedTraffic(uint32_t bytes) {
    if (metered_) {
      shared_bytes_ += bytes;
      ++ops_;
    }
  }

  /// End of a checked lane: hand a metered lane's counters to the warp.
  void Commit() {
    if (!metered_) {
      return;
    }
    raw_->fp32_flops += fp32_;
    raw_->fp64_flops += fp64_;
    raw_->requested_read_bytes += requested_[0];
    raw_->requested_write_bytes += requested_[1];
    raw_->shared_bytes += shared_bytes_;
    wt_->EndLane(lane_ & 31, {read_seq_, write_seq_, atomic_seq_}, ops_,
                 mem_ops_);
  }

  size_t lane_, block_, block_dim_, grid_dim_;
  // The rest is the checked lane's; the unchecked lane never reads it.
  WarpTracker* wt_;
  KernelStats* raw_;
  Sanitizer* san_;  // non-owning; null unless EnableSanitizer
  size_t phase_;    // barrier interval this lane is executing in
  bool metered_;    // this lane's warp is sampled (WarpTracker)
  size_t read_seq_ = 0;
  size_t write_seq_ = 0;
  size_t atomic_seq_ = 0;
  // A metered lane's counters, kept in the lane until Commit.
  uint64_t fp32_ = 0;
  uint64_t fp64_ = 0;
  uint64_t requested_[2] = {};  // bytes: reads; writes and atomics
  uint64_t shared_bytes_ = 0;
  uint64_t ops_ = 0;
  uint64_t mem_ops_ = 0;
};

/// The view device code gets of one thread block (CUDA block / OpenCL
/// workgroup).
class BlockCtx {
 public:
  size_t block() const { return block_; }
  size_t block_dim() const { return block_dim_; }
  size_t grid_dim() const { return grid_dim_; }

  /// Allocate a __shared__ array (zero-initialized by the simulator — note
  /// that real shared memory is *not*; the sanitizer's never-written check
  /// models the hardware behavior). Exceeding the per-block shared limit
  /// asserts, or — with a sanitizer attached — reports a structured
  /// shared-overflow hazard and continues (host memory backs the arena).
  template <typename T>
  SharedArray<T> shared(size_t n) {
    size_t bytes = n * sizeof(T);
    bool fits = shared_used_ + bytes <= spec_->shared_mem_per_block;
    if (!fits && san_ != nullptr) {
      san_->OnSharedOverflow(block_, bytes, shared_used_,
                             spec_->shared_mem_per_block);
    }
    assert((fits || san_ != nullptr) && "exceeds shared memory per block");
    arena_.push_back(std::make_unique<char[]>(bytes));
    std::memset(arena_.back().get(), 0, bytes);
    auto* p = reinterpret_cast<T*>(arena_.back().get());
    BufferShadow* shadow = nullptr;
    if (san_ != nullptr && san_->memcheck_enabled()) {
      shared_shadows_.push_back(std::make_unique<BufferShadow>(n));
      shadow = shared_shadows_.back().get();
    }
    SharedArray<T> s(p, n, kSharedBase + shared_used_, shadow);
    shared_used_ += bytes;
    return s;
  }

  /// Run `body(t)` for every thread of the block; the end of the call is a
  /// block-wide barrier (__syncthreads()). A warp runs through the checked
  /// lane when it is metered or a sanitizer is attached, and through the
  /// unchecked lane otherwise (BasicLane), so `body` must be generic over
  /// the lane. Flattened so the body is inlined into the lane loops: a
  /// kernel body is too large for GCC to inline on its own, and a body
  /// called out of line would take the lane by reference and keep it in
  /// memory.
  template <typename F>
  [[gnu::flatten]] void for_each_lane(F&& body) {
    if (san_ != nullptr) {
      san_->BeginPhase();
    }
    size_t phase = phases_run_++;
    for (size_t w0 = 0; w0 < block_dim_; w0 += 32) {
      size_t lanes = std::min<size_t>(32, block_dim_ - w0);
      bool metered = (warp_counter_++ % static_cast<size_t>(stride_)) == 0;
      if (!metered && san_ == nullptr) {
        for (size_t l = 0; l < lanes; ++l) {
          BasicLane<false> t(w0 + l, block_, block_dim_, grid_dim_);
          body(t);
        }
        continue;
      }
      for (size_t l = 0; l < lanes; ++l) {
        BasicLane<true> t(w0 + l, block_, block_dim_, grid_dim_, wt_, raw_,
                          san_, phase, metered);
        body(t);
        t.Commit();
      }
      if (metered) {
        wt_->Flush(mem_, raw_, defer_);
      }
    }
  }

 private:
  friend class Device;

  BlockCtx(size_t block, size_t block_dim, size_t grid_dim,
           const DeviceSpec* spec, MemoryModel* mem, KernelStats* raw,
           WarpTracker* wt, size_t first_warp, int stride, Sanitizer* san,
           MeterBuffer* defer)
      : block_(block),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        spec_(spec),
        mem_(mem),
        raw_(raw),
        wt_(wt),
        warp_counter_(first_warp),
        stride_(stride),
        san_(san),
        defer_(defer) {}

  size_t block_, block_dim_, grid_dim_;
  const DeviceSpec* spec_;
  MemoryModel* mem_;
  KernelStats* raw_;
  WarpTracker* wt_;  // the chunk's; outlives the block
  /// Launch-wide index of the next warp; the sampling decision is a pure
  /// function of it, so a chunk can start it anywhere (Device::Launch).
  size_t warp_counter_;
  int stride_;
  Sanitizer* san_;
  MeterBuffer* defer_;  // null on the launch's first chunk
  size_t shared_used_ = 0;
  size_t phases_run_ = 0;  // barrier intervals executed (synccheck input)
  std::vector<std::unique_ptr<char[]>> arena_;
  std::vector<std::unique_ptr<BufferShadow>> shared_shadows_;
};

struct LaunchConfig {
  std::string name;
  size_t grid_dim = 1;   // blocks
  size_t block_dim = 1;  // threads per block
  /// Kernel contract: blocks neither communicate nor overlap writes through
  /// global memory, and every block runs the same number of for_each_lane
  /// phases (so the same number of warps). The device then runs the blocks
  /// in concurrent chunks whenever the host has more than one worker; a
  /// block whose warp count differs from block 0's throws std::logic_error.
  /// Kernels with cross-block coupling — ug_build's atomicExch linked-list
  /// push, the radix-sort passes — must leave this false and always run
  /// block-sequentially.
  bool block_parallel_safe = false;
};

/// A simulated GPU. Owns the address space, the memory model, the simulated
/// clock, and the per-kernel profile.
class Device {
 public:
  explicit Device(DeviceSpec spec)
      : spec_(std::move(spec)), mem_(SampledSpec(spec_, 1)) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Warp-sampling stride: 1 = meter every warp (exact), k = meter every
  /// k-th warp and scale (the L2 capacity seen by the sampled stream is
  /// scaled down by k so hit rates stay representative). Call before any
  /// Launch. Throws std::invalid_argument for a stride below 1.
  void SetMeterStride(int stride) {
    if (stride < 1) {
      throw std::invalid_argument("meter_stride must be >= 1, got " +
                                  std::to_string(stride));
    }
    stride_ = stride;
    mem_ = MemoryModel(SampledSpec(spec_, stride));
  }
  int meter_stride() const { return stride_; }

  /// Attach the compute-sanitizer-style analysis layer (sanitizer.h). Every
  /// subsequent Launch is checked; hazards accumulate in
  /// sanitizer()->report(). Call before Alloc for full memcheck coverage —
  /// buffers allocated earlier are bounds-checked but not tracked for
  /// never-written reads. Returns the sanitizer for configuration/report
  /// access.
  Sanitizer* EnableSanitizer(SanitizerConfig config = {}) {
    sanitizer_ = std::make_unique<Sanitizer>(config);
    return sanitizer_.get();
  }
  Sanitizer* sanitizer() { return sanitizer_.get(); }
  const Sanitizer* sanitizer() const { return sanitizer_.get(); }

  /// Allocate a device buffer of `n` elements.
  template <typename T>
  DeviceBuffer<T> Alloc(size_t n) {
    DeviceBuffer<T> b;
    b.storage_.resize(n);
    b.base_ = next_addr_;
    if (sanitizer_ && sanitizer_->memcheck_enabled()) {
      b.shadow_ = std::make_shared<BufferShadow>(n);
    }
    size_t bytes = (n * sizeof(T) + 255) / 256 * 256;
    next_addr_ += bytes;
    allocated_bytes_ += bytes;
    assert(allocated_bytes_ <= spec_.dram_bytes && "device out of memory");
    return b;
  }

  /// Host -> device copy (metered: PCIe time on the simulated clock).
  template <typename T>
  void CopyToDevice(DeviceBuffer<T>& dst, std::span<const T> src) {
    assert(src.size() <= dst.size());
    std::memcpy(dst.storage_.data(), src.data(), src.size() * sizeof(T));
    if (dst.shadow_) {
      dst.shadow_->MarkPrefix(src.size());
    }
    uint64_t bytes = src.size() * sizeof(T);
    transfers_.h2d_bytes += bytes;
    transfers_.h2d_count += 1;
    transfers_.h2d_ms += TransferMs(spec_, bytes);
  }

  /// Device -> host copy (metered).
  template <typename T>
  void CopyFromDevice(std::span<T> dst, const DeviceBuffer<T>& src) {
    assert(dst.size() <= src.size());
    std::memcpy(dst.data(), src.storage_.data(), dst.size() * sizeof(T));
    uint64_t bytes = dst.size() * sizeof(T);
    transfers_.d2h_bytes += bytes;
    transfers_.d2h_count += 1;
    transfers_.d2h_ms += TransferMs(spec_, bytes);
  }

  /// Execute a kernel and return its stats (also appended to the profile
  /// and the simulated clock). A launch flagged block_parallel_safe with
  /// more than one block and no sanitizer attached runs its blocks in
  /// min(grid_dim, HardwareThreads()) contiguous chunks on the host thread
  /// pool (core/thread_pool.h); every other launch is one chunk. Counters
  /// are byte-identical at any chunk count: block 0 runs first and fixes
  /// the warps per block W, chunk c starts its warp counter at begin_c * W,
  /// the first chunk probes L1/L2 directly, and every later chunk buffers
  /// its line transactions for a replay in block order after the join.
  KernelStats Launch(const LaunchConfig& cfg,
                     const std::function<void(BlockCtx&)>& kernel);

  /// Account a library kernel (e.g. a vendor sort) by its streaming traffic
  /// without executing it through the SIMT engine: `read_bytes` and
  /// `write_bytes` are assumed perfectly coalesced. Advances the simulated
  /// clock and appears in the profile like any launch.
  KernelStats AddModeledKernel(const std::string& name, uint64_t read_bytes,
                               uint64_t write_bytes, uint64_t fp32_flops = 0);

  /// Drop cache state between independent experiments.
  void ResetCache() { mem_.ResetCache(); }

  /// Simulated elapsed GPU time: kernels + transfers.
  double ElapsedMs() const { return kernel_ms_ + transfers_.TotalMs(); }
  double KernelMs() const { return kernel_ms_; }
  const TransferStats& transfers() const { return transfers_; }
  void ResetClock() {
    kernel_ms_ = 0.0;
    transfers_ = {};
    history_.clear();
  }

  /// Per-launch history (the nvprof substitute reads this).
  const std::vector<KernelStats>& history() const { return history_; }

 private:
  static DeviceSpec SampledSpec(const DeviceSpec& spec, int stride) {
    DeviceSpec s = spec;
    s.l2_capacity_bytes =
        std::max<size_t>(spec.l2_capacity_bytes / static_cast<size_t>(stride),
                         static_cast<size_t>(spec.l2_line_bytes) * 64);
    s.l1_capacity_bytes =
        std::max<size_t>(spec.l1_capacity_bytes / static_cast<size_t>(stride),
                         static_cast<size_t>(spec.l2_line_bytes) * 16);
    return s;
  }

  DeviceSpec spec_;
  MemoryModel mem_;
  std::unique_ptr<Sanitizer> sanitizer_;
  int stride_ = 1;
  uint64_t next_addr_ = 1ull << 20;
  uint64_t allocated_bytes_ = 0;
  TransferStats transfers_;
  double kernel_ms_ = 0.0;
  std::vector<KernelStats> history_;
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_DEVICE_H_
