// Set-associative L2 cache simulation at cache-line granularity.
//
// The GPU L2 sits between all SMs and DRAM; whether a 128-byte transaction
// hits in it is the difference between the paper's sorted (Improvement II)
// and unsorted kernels, so this is simulated faithfully (real tags, LRU)
// rather than approximated with a hit-rate knob.
//
// Each set keeps its ways in recency order, most recently used first, so
// LRU needs no per-way stamps: a hit moves its tag to the front, a miss
// shifts the set down one way (the least recently used tag falls off the
// end) and inserts at the front. A set always holds the last `ways`
// distinct lines that mapped to it, exactly what a stamp-scan LRU holds, so
// the hit/miss sequence is the same. The set index is a Lemire fastmod
// (set counts are rarely powers of two: 384 for a V100 L2 at meter
// stride 8), with `%` for the line indices a 32-bit fastmod cannot take.
#ifndef BIOSIM_GPUSIM_L2_CACHE_H_
#define BIOSIM_GPUSIM_L2_CACHE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace biosim::gpusim {

class L2Cache {
 public:
  L2Cache(size_t capacity_bytes, int line_bytes, int associativity)
      : ways_(static_cast<size_t>(associativity)) {
    const uint64_t line = static_cast<uint64_t>(line_bytes);
    assert(line_bytes > 0 && (line & (line - 1)) == 0 &&
           "cache line size must be a power of two");
    while ((uint64_t{1} << line_shift_) < line) {
      ++line_shift_;
    }
    num_sets_ = capacity_bytes / (line * ways_);
    if (num_sets_ == 0) {
      num_sets_ = 1;
    }
    // The fastmod identity holds for 32-bit dividends and divisors; a set
    // count past that (never a real cache) sends every line to `%`.
    fastmod_limit_ = num_sets_ <= kU32Max ? kU32Max : 0;
    fastmod_m_ = ~uint64_t{0} / num_sets_ + 1;
    sets_.assign(num_sets_ * ways_, kInvalid);
  }

  /// Probe (and fill on miss) the line containing `addr`; true on hit.
  bool Access(uint64_t addr) { return AccessLine(addr >> line_shift_); }

  /// Probe (and fill on miss) line index `line`; true on hit.
  bool AccessLine(uint64_t line) {
    uint64_t* tags = &sets_[SetOf(line) * ways_];
    // One pass: each way takes its predecessor's tag while the scan looks
    // for `line`. A hit at way w leaves [line, 0..w-1, w+1..] (the repeat
    // hit on the MRU way is one compare); a miss drops the LRU way.
    uint64_t carry = line;
    for (size_t w = 0; w < ways_; ++w) {
      const uint64_t tag = tags[w];
      tags[w] = carry;
      if (tag == line) {
        return true;
      }
      carry = tag;
    }
    return false;
  }

  void Reset() { std::fill(sets_.begin(), sets_.end(), kInvalid); }

  size_t num_sets() const { return num_sets_; }
  size_t ways() const { return ways_; }

 private:
  static constexpr uint64_t kInvalid = ~uint64_t{0};
  static constexpr uint64_t kU32Max = 0xffffffffu;

  size_t SetOf(uint64_t line) const {
    if (line > fastmod_limit_) [[unlikely]] {
      return static_cast<size_t>(line % num_sets_);
    }
    const uint64_t low = fastmod_m_ * line;
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(low) * num_sets_) >> 64);
  }

  int line_shift_ = 0;
  size_t ways_;
  size_t num_sets_;
  uint64_t fastmod_limit_ = 0;  // largest line that takes the fastmod
  uint64_t fastmod_m_ = 0;      // ceil(2^64 / num_sets_) mod 2^64
  std::vector<uint64_t> sets_;  // line tags, [set][way], MRU first
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_L2_CACHE_H_
