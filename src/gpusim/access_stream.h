// Batched per-warp access streams for the metered SIMT path.
//
// Lanes used to bucket every global access into per-instruction
// vector-of-vectors rebuilt for every warp — one heap round-trip per memory
// instruction plus a gather pass at flush. The batched design appends
// {addr, bytes} records into one stream per lane and kind: a lane numbers
// its accesses 0, 1, 2, ..., so its appends are sequential however long
// its neighbor walk runs. WarpTracker::Flush reads the streams back as
// (kind, seq) rows — the seq-th access of every lane that made one, in lane
// order — reads by seq ascending, then writes, then atomics, which is
// exactly the order the memory model consumed before and keeps the
// counters *byte-identical* (see tests/gpusim/golden_counters_test.cc for
// the pinned counters). All buffers retain their capacity across warps, so
// the steady-state hot path never allocates.
#ifndef BIOSIM_GPUSIM_ACCESS_STREAM_H_
#define BIOSIM_GPUSIM_ACCESS_STREAM_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <vector>

#include "gpusim/kernel_stats.h"

namespace biosim::gpusim {

/// Access kinds in consumption order — do not reorder.
enum class StreamKind : uint8_t { kRead = 0, kWrite = 1, kAtomic = 2 };

/// One warp's metered global accesses, kept per lane and read by
/// (kind, seq) row.
class WarpAccessStream {
 public:
  static constexpr size_t kWarpSize = 32;
  static constexpr size_t kKinds = 3;

  /// Forget the warp's records.
  void Clear() {
    for (auto& ends : ends_) {
      std::fill(std::begin(ends), std::end(ends), uint32_t{0});
    }
  }

  /// Record lane `lane`'s access number `seq` of a kind. A lane numbers its
  /// accesses 0, 1, 2, ... and so writes its records in sequence, one
  /// stream per lane; a number it skipped (an access the sanitizer
  /// suppressed) becomes a hole that Gather passes over.
  void Append(StreamKind kind, size_t lane, uint32_t seq, uint64_t addr,
              uint32_t bytes) {
    const size_t k = static_cast<size_t>(kind);
    if (seq >= stride_[k] || seq != ends_[k][lane]) [[unlikely]] {
      AppendSlow(k, lane, seq, addr, bytes);
      return;
    }
    const size_t slot = lane * stride_[k] + seq;
    addrs_[k][slot] = addr;
    bytes_[k][slot] = bytes;
    ends_[k][lane] = seq + 1;
  }

  /// Rows in use for a kind (max recorded seq + 1).
  size_t rows(size_t kind) const {
    return *std::max_element(std::begin(ends_[kind]), std::end(ends_[kind]));
  }

  /// Copy row (kind, seq) — the records of every lane that made access
  /// `seq`, in lane order — into `addrs`/`bytes` (32 slots each); returns
  /// the record count.
  size_t Gather(size_t kind, size_t seq, uint64_t* addrs,
                uint32_t* bytes) const {
    size_t n = 0;
    for (size_t lane = 0; lane < kWarpSize; ++lane) {
      if (seq >= ends_[kind][lane]) {
        continue;
      }
      const size_t slot = lane * stride_[kind] + seq;
      const uint32_t b = bytes_[kind][slot];
      if (b == 0) {
        continue;  // hole: the sanitizer suppressed this access
      }
      addrs[n] = addrs_[kind][slot];
      bytes[n] = b;
      ++n;
    }
    return n;
  }

 private:
  /// Append through a full stream or after a hole: grow, then mark the
  /// skipped seqs as holes. Out of line so Append's fast path needs no
  /// saved registers.
  [[gnu::noinline]] void AppendSlow(size_t kind, size_t lane, uint32_t seq,
                                    uint64_t addr, uint32_t bytes) {
    if (seq >= stride_[kind]) {
      Grow(kind, seq);
    }
    const size_t base = lane * stride_[kind];
    const uint32_t end = ends_[kind][lane];
    assert(seq >= end && "one record per lane and seq");
    std::fill_n(bytes_[kind].begin() + static_cast<ptrdiff_t>(base + end),
                seq - end, uint32_t{0});
    addrs_[kind][base + seq] = addr;
    bytes_[kind][base + seq] = bytes;
    ends_[kind][lane] = seq + 1;
  }

  /// Widen every lane's stream of `kind` to hold record `seq`, keeping the
  /// records already written. Capacity is retained across warps. The
  /// stride is an odd number of 64-byte lines of addresses, so the 32
  /// lanes' records of one seq — the row Gather reads — fall into
  /// different host cache sets instead of piling into one.
  void Grow(size_t kind, uint32_t seq) {
    const size_t old_stride = stride_[kind];
    const size_t want =
        std::max<size_t>({2 * old_stride, size_t{seq} + 1, size_t{64}});
    const size_t stride = (want + 15) / 16 * 16 + 8;
    std::vector<uint64_t> addrs(kWarpSize * stride);
    std::vector<uint32_t> bytes(kWarpSize * stride);
    for (size_t lane = 0; lane < kWarpSize; ++lane) {
      const size_t n = ends_[kind][lane];
      std::copy_n(addrs_[kind].begin() + lane * old_stride, n,
                  addrs.begin() + lane * stride);
      std::copy_n(bytes_[kind].begin() + lane * old_stride, n,
                  bytes.begin() + lane * stride);
    }
    addrs_[kind] = std::move(addrs);
    bytes_[kind] = std::move(bytes);
    stride_[kind] = stride;
  }

  std::vector<uint64_t> addrs_[kKinds];  // [lane][seq], lane-major
  std::vector<uint32_t> bytes_[kKinds];  // 0 marks a hole
  size_t stride_[kKinds] = {};           // seq capacity of each lane
  uint32_t ends_[kKinds][kWarpSize] = {};  // per lane: last seq + 1
};

/// Deferred metering output of one launch chunk after the first (a
/// contiguous block range, Device::Launch). Chunks coalesce their warp
/// streams in parallel — the integer counters land in `stats`, which is
/// order-independent (pure sums and maxes) — while the order-*dependent*
/// part, the L1/L2 probes, is buffered as packed line transactions and
/// replayed through the shared cache hierarchy strictly in block order.
/// That replay rule is what keeps the counters byte-identical to
/// block-sequential execution at any worker count.
struct MeterBuffer {
  /// (line_index << 1) | is_write, in the exact order a one-chunk launch
  /// would have probed the caches.
  std::vector<uint64_t> line_entries;
  /// Counter-only shard: integer counters accumulated by this block range
  /// (timing fields stay zero; the launch fills them after the merge).
  KernelStats stats;
  /// Per-shard coalescer scratch. The MemoryModel's own scratch vector is
  /// shared state — concurrent chunks must each coalesce into their own
  /// buffer (MemoryModel::CoalesceInto).
  std::vector<uint64_t> coalesce_scratch;
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_ACCESS_STREAM_H_
