// Batched per-warp access streams for the metered SIMT path.
//
// A metered lane appends one 64-bit record per global access into one
// stream per lane and kind (WarpTracker::Record decides what a record
// holds: the cache line of a load or store, the address of an atomic). A
// lane numbers its accesses 0, 1, 2, ..., so its appends are sequential
// however long its neighbor walk runs. WarpTracker::Flush walks the
// streams in place as (kind, seq) rows — the seq-th access of every lane
// that made one, in lane order — reads by seq ascending, then writes, then
// atomics, which is exactly the order the memory model has always consumed
// and keeps the counters *byte-identical* (see
// tests/gpusim/golden_counters_test.cc for the pinned counters). All
// buffers retain their capacity across warps, so the steady-state hot path
// never allocates.
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
  /// The record of an access the sanitizer suppressed; rows skip it.
  static constexpr uint64_t kHole = ~uint64_t{0};

  /// Forget the warp's records.
  void Clear() {
    for (auto& ends : ends_) {
      std::fill(std::begin(ends), std::end(ends), uint32_t{0});
    }
  }

  /// Store lane `lane`'s access number `seq` of a kind. A lane numbers
  /// its accesses 0, 1, 2, ... and writes a record (or a hole) for each, so
  /// its writes are sequential in its own stream.
  void Put(StreamKind kind, size_t lane, size_t seq, uint64_t rec) {
    const size_t k = static_cast<size_t>(kind);
    if (seq >= stride_[k]) [[unlikely]] {
      Grow(k, seq);
    }
    recs_[k][lane * stride_[k] + seq] = rec;
  }

  /// Close lane `lane`'s stream of `kind` after `n` records.
  void SetEnd(size_t kind, size_t lane, size_t n) {
    ends_[kind][lane] = static_cast<uint32_t>(n);
  }

  /// Rows in use for a kind (the longest lane stream).
  size_t rows(size_t kind) const {
    return *std::max_element(std::begin(ends_[kind]), std::end(ends_[kind]));
  }

  /// Call `f(rec)` for row (kind, seq) — the record of every lane that made
  /// access `seq`, in lane order — read in place from the lane streams.
  template <typename F>
  void ForEachInRow(size_t kind, size_t seq, F&& f) const {
    const uint64_t* recs = recs_[kind].data() + seq;
    const size_t stride = stride_[kind];
    for (size_t lane = 0; lane < kWarpSize; ++lane) {
      if (seq < ends_[kind][lane]) {
        const uint64_t rec = recs[lane * stride];
        if (rec != kHole) {
          f(rec);
        }
      }
    }
  }

 private:
  /// Widen every lane's stream of `kind` to hold record `seq`, keeping the
  /// records already written. Out of line so Put's fast path needs no
  /// saved registers; capacity is retained across warps. The stride is an
  /// odd number of 64-byte lines of records, so the 32 lanes' records of
  /// one seq — one row — fall into different host cache sets instead of
  /// piling into one.
  [[gnu::noinline]] void Grow(size_t kind, size_t seq) {
    const size_t old_stride = stride_[kind];
    const size_t want = std::max<size_t>({2 * old_stride, seq + 1, 64});
    const size_t stride = (want + 15) / 16 * 16 + 8;
    std::vector<uint64_t> recs(kWarpSize * stride);
    for (size_t lane = 0; lane < kWarpSize; ++lane) {
      std::copy_n(recs_[kind].begin() + lane * old_stride, old_stride,
                  recs.begin() + lane * stride);
    }
    recs_[kind] = std::move(recs);
    stride_[kind] = stride;
  }

  std::vector<uint64_t> recs_[kKinds];     // [lane][seq], lane-major
  size_t stride_[kKinds] = {};             // seq capacity of each lane
  uint32_t ends_[kKinds][kWarpSize] = {};  // per lane: records written
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
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_ACCESS_STREAM_H_
