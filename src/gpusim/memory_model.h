// Global-memory traffic model: per-warp coalescing in front of a simulated
// L2 in front of DRAM byte counters.
//
// The SIMT engine hands this model the cache lines each warp touches per
// memory instruction. They are merged into unique line transactions (the
// coalescer), each transaction probes the L1 and then the L2, and misses
// count as DRAM traffic. This chain is what makes the paper's improvements
// measurable: FP32 halves the requested bytes, Z-order sorting makes
// warp-neighbor addresses share lines (fewer transactions) and repeat lines
// across warps (more L2 hits).
#ifndef BIOSIM_GPUSIM_MEMORY_MODEL_H_
#define BIOSIM_GPUSIM_MEMORY_MODEL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/kernel_stats.h"
#include "gpusim/l2_cache.h"

namespace biosim::gpusim {

/// One lane's access within a memory instruction.
struct LaneAccess {
  uint64_t addr;
  uint32_t bytes;
};

class MemoryModel {
 public:
  explicit MemoryModel(const DeviceSpec& spec)
      : line_bytes_(static_cast<uint64_t>(spec.l2_line_bytes)),
        line_shift_(LineShift(line_bytes_)),
        l1_(spec.l1_capacity_bytes, spec.l2_line_bytes, spec.l1_associativity),
        l2_(spec.l2_capacity_bytes, spec.l2_line_bytes, spec.l2_associativity) {}

  /// Process one warp-wide memory instruction: coalesce the lane accesses
  /// into line transactions and run them through the L2. Counters land in
  /// `stats` (unscaled; the engine scales for sampling at the end). The
  /// SIMT engine records its accesses as line ids and calls CoalesceLines
  /// and ProbeLines itself (WarpTracker::Flush); this entry point serves
  /// callers that hold (addr, bytes) pairs.
  void AccessWarp(const std::vector<LaneAccess>& accesses, bool write,
                  KernelStats* stats) {
    AccessWarp(accesses.data(), accesses.size(), write, stats);
  }
  void AccessWarp(const LaneAccess* accesses, size_t n, bool write,
                  KernelStats* stats) {
    uint64_t requested = 0;
    CoalesceLines(&lines_, [&](auto&& emit) {
      for (size_t i = 0; i < n; ++i) {
        requested += accesses[i].bytes;
        EmitLines(accesses[i].addr, accesses[i].bytes, line_shift_, emit);
      }
    });
    if (write) {
      stats->requested_write_bytes += requested;
      stats->write_transactions += lines_.size();
    } else {
      stats->requested_read_bytes += requested;
      stats->read_transactions += lines_.size();
    }
    ProbeLines(lines_.data(), lines_.size(), write, stats);
  }

  /// The coalescer: merge the lines of one warp instruction into its unique
  /// line transactions, in ascending order, in `*out`. `for_each_line(emit)`
  /// calls `emit(line)` for every line each lane access touches, in lane
  /// order. Pure apart from `*out`, so concurrent launch chunks may run it
  /// at once, each into its own scratch.
  template <typename ForEachLine>
  static void CoalesceLines(std::vector<uint64_t>* out,
                            ForEachLine&& for_each_line) {
    std::vector<uint64_t>& lines = *out;
    lines.clear();
    bool sorted = true;  // false once a scattered row starts appending
    uint64_t prev = ~uint64_t{0};
    for_each_line([&](uint64_t line) {
      if (line == prev) {
        return;  // neighboring lanes share a line: already counted
      }
      prev = line;
      if (sorted && lines.size() < kInsertLines) {
        // Few lines so far: lanes revisit them in no predictable order,
        // so the membership test is branch-free and only a new line
        // branches (into an ordered insert).
        bool seen = false;
        for (uint64_t l : lines) {
          seen |= l == line;
        }
        if (!seen) {
          InsertLine(&lines, line);
        }
      } else {
        // A scattered row (an unsorted gather touches a line per lane):
        // append (the skip above drops adjacent repeats) and sort once at
        // the end.
        sorted = false;
        lines.push_back(line);
      }
    });
    if (!sorted) {
      std::sort(lines.begin(), lines.end());
      lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    }
  }

  /// `emit(line)` for each line of the `bytes`-wide access at `addr`, given
  /// log2 of the line size. Lines are a power of two wide; the shift keeps
  /// the line math free of hardware divisions.
  template <typename Emit>
  static void EmitLines(uint64_t addr, uint32_t bytes, int line_shift,
                        Emit&& emit) {
    const uint64_t last = (addr + bytes - 1) >> line_shift;
    for (uint64_t line = addr >> line_shift; line <= last; ++line) {
      emit(line);
    }
  }

  /// log2 of the line size: a line id is `addr >> line_shift()`.
  int line_shift() const { return line_shift_; }

  /// Cache half of AccessWarp: run line transactions through L1 then L2,
  /// attributing each line's bytes to its service level. Order-dependent
  /// (the caches are stateful LRU) — callers must present transactions in
  /// program order.
  void ProbeLines(const uint64_t* lines, size_t n, bool write,
                  KernelStats* stats) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t line = lines[i];
      uint64_t bytes = line_bytes_;
      // L1 first (per-SM cache; the block-sequential execution order makes
      // one L1 a faithful stand-in for each SM's view of its blocks).
      if (l1_.AccessLine(line)) {
        (write ? stats->l1_write_hit_bytes : stats->l1_read_hit_bytes) += bytes;
        continue;
      }
      bool hit = l2_.AccessLine(line);
      if (write) {
        (hit ? stats->l2_write_hit_bytes : stats->dram_write_bytes) += bytes;
      } else {
        (hit ? stats->l2_read_hit_bytes : stats->dram_read_bytes) += bytes;
      }
    }
  }

  /// Cold caches (between kernels of different benchmarks; within one
  /// simulation step the L2 legitimately stays warm across kernels).
  void ResetCache() {
    l1_.Reset();
    l2_.Reset();
  }

 private:
  /// Lines a row may reach before the coalescer stops inserting in order
  /// and appends the rest for one sort. A mechanics gather on sorted agents
  /// touches about five lines per row and never gets there.
  static constexpr size_t kInsertLines = 8;

  /// Insert `line`, which is not in the sorted list yet, in order.
  static void InsertLine(std::vector<uint64_t>* lines, uint64_t line) {
    const size_t n = lines->size();
    lines->push_back(line);
    uint64_t* d = lines->data();
    size_t pos = n;
    for (; pos != 0 && d[pos - 1] > line; --pos) {
      d[pos] = d[pos - 1];
    }
    d[pos] = line;
  }

  static int LineShift(uint64_t line_bytes) {
    assert(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0 &&
           "cache line size must be a power of two");
    int shift = 0;
    while ((uint64_t{1} << shift) < line_bytes) {
      ++shift;
    }
    return shift;
  }

  uint64_t line_bytes_;
  int line_shift_;
  L2Cache l1_;  // same structure, per-SM capacity
  L2Cache l2_;
  std::vector<uint64_t> lines_;  // scratch, reused across calls
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_MEMORY_MODEL_H_
