#include "spatial/shard_grid.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "physics/displacement.h"

namespace biosim {

namespace {

/// Widest radix digit: at most 256 scatter fronts per pass stay cache- and
/// TLB-resident (measured faster than 2^11 buckets in two passes). A 128^3
/// lattice (21-bit keys) sorts in three passes of 7 bits.
constexpr uint32_t kMaxDigitBits = 8;
/// Rows per chunk below which extra chunks cost more than they save.
constexpr size_t kMinChunkRows = 4096;
/// Average rows each chunk must scatter into each radix bucket before the
/// sort passes go parallel: below ~a cache line per (chunk, bucket)
/// segment, neighboring chunks' segments share lines and the scatter
/// thrashes them between cores, slower than one core alone.
constexpr size_t kMinRowsPerBucket = 32;

size_t ChunkCount(ExecMode mode, size_t n) {
  if (mode != ExecMode::kParallel) {
    return 1;
  }
  return std::clamp<size_t>(n / kMinChunkRows, 1, HardwareThreads());
}

}  // namespace

void ShardGrid::Configure(const GridGeometry& geometry, int32_t owned_begin,
                          int32_t owned_end) {
  // The previous window's bits are addressed by its own keys: clear them
  // before the key mapping changes.
  ClearOccupancy(ExecMode::kSerial);
  occupied_wb_.clear();
  starts_.assign(1, 0);
  agents_.clear();
  owned_slot_begin_ = 0;
  owned_slot_end_ = 0;

  geometry_ = geometry;
  owned_begin_ = owned_begin;
  owned_end_ = owned_end;
  const int32_t nx = geometry_.num_boxes_axis.x;
  const int32_t ny = geometry_.num_boxes_axis.y;
  const int32_t nz = geometry_.num_boxes_axis.z;
  plane_size_ = static_cast<size_t>(nx) * static_cast<size_t>(ny);

  // Window = owned planes plus one halo plane on each side. On a torus the
  // halo wraps; on an open domain out-of-range planes are skipped. A plane
  // reached twice (a torus so small the halo wraps onto an owned plane) is
  // kept once. Planes are numbered in ascending global z, so window keys
  // sort boxes in global flat-index order.
  plane_to_window_.assign(static_cast<size_t>(nz), -1);
  for (int32_t zz = owned_begin - 1; zz <= owned_end; ++zz) {
    int32_t z = zz;
    if (geometry_.torus) {
      z = ((zz % nz) + nz) % nz;
    } else if (z < 0 || z >= nz) {
      continue;
    }
    plane_to_window_[static_cast<size_t>(z)] = 0;
  }
  window_planes_.clear();
  for (int32_t z = 0; z < nz; ++z) {
    if (plane_to_window_[static_cast<size_t>(z)] >= 0) {
      plane_to_window_[static_cast<size_t>(z)] =
          static_cast<int32_t>(window_planes_.size());
      window_planes_.push_back(z);
    }
  }

  const size_t window_boxes = window_planes_.size() * plane_size_;
  if (window_boxes - 1 > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("ShardGrid: window of " +
                            std::to_string(window_boxes) +
                            " boxes exceeds the 2^32 that 32-bit box keys "
                            "address");
  }
  // Halo planes sort below or above the owned range, so the owned planes
  // are one contiguous run of window planes.
  if (owned_begin_ < owned_end_) {
    owned_key_begin_ = static_cast<uint32_t>(
        plane_to_window_[static_cast<size_t>(owned_begin_)] * plane_size_);
    owned_key_end_ = static_cast<uint32_t>(
        (plane_to_window_[static_cast<size_t>(owned_end_ - 1)] + 1) *
        plane_size_);
  } else {
    owned_key_begin_ = owned_key_end_ = 0;
  }
  key_bits_ = static_cast<uint32_t>(
      std::bit_width(static_cast<uint64_t>(window_boxes - 1)));
  const size_t words = (window_boxes + 63) / 64;
  occupancy_.resize(words + 1);  // + the zero padding word
  word_rank_.resize(words);
}

void ShardGrid::ClearOccupancy(ExecMode mode) {
  // Each word is zeroed by the first slot inside it only, so no two
  // workers write one word.
  const uint32_t* keys = occupied_wb_.data();
  ParallelFor(mode, occupied_wb_.size(), [&](size_t s) {
    if (s == 0 || keys[s] / 64 != keys[s - 1] / 64) {
      occupancy_[keys[s] / 64] = 0;
    }
  });
}

void ShardGrid::Update(const std::vector<int32_t>& members,
                       const Double3* positions, ExecMode mode) {
  Build(members.data(), members.size(), positions, mode);
}

void ShardGrid::Update(size_t n, const Double3* positions, ExecMode mode) {
  Build(nullptr, n, positions, mode);
}

void ShardGrid::Build(const int32_t* members, size_t n,
                      const Double3* positions, ExecMode mode) {
  keys_.resize(n);
  keys_alt_.resize(n);
  agents_.resize(n);
  agents_alt_.resize(n);

  // Fixed chunk boundaries shared by every phase below; each phase touches
  // only its own chunk's rows (or its own histogram row).
  const size_t chunks = ChunkCount(mode, n);
  auto chunk_begin = [&](size_t c) { return n * c / chunks; };

  // 1) Bin: key = window box of each member, in member (ascending row)
  // order. A member outside the window is recorded per chunk and reported
  // after the join — exceptions must not leave a parallel region.
  const int32_t nx = geometry_.num_boxes_axis.x;
  std::vector<size_t> outside(chunks, n);
  ParallelFor(mode, chunks, [&](size_t c) {
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      const int32_t row = members != nullptr ? members[i]
                                             : static_cast<int32_t>(i);
      const Int3 b = geometry_.BoxCoordinatesOf(positions[row]);
      const int32_t wz = plane_to_window_[static_cast<size_t>(b.z)];
      if (wz < 0) {
        outside[c] = std::min(outside[c], i);
        continue;
      }
      keys_[i] = static_cast<uint32_t>(
          static_cast<size_t>(wz) * plane_size_ +
          static_cast<size_t>(b.y) * static_cast<size_t>(nx) +
          static_cast<size_t>(b.x));
      agents_[i] = row;
    }
  });
  for (size_t first : outside) {
    if (first < n) {
      const int32_t row = members[first];
      throw std::logic_error(
          "ShardGrid: agent row " + std::to_string(row) + " binned to plane " +
          std::to_string(geometry_.BoxCoordinatesOf(positions[row]).z) +
          " outside the shard window [" + std::to_string(owned_begin_) +
          ", " + std::to_string(owned_end_) +
          ") + halo — halo exchange or migration dropped a transfer");
    }
  }

  // 2) Stable LSD radix sort of (key, row) by key. Each pass: per-chunk
  // digit histograms, a digit-major/chunk-minor exclusive scan (chunk c's
  // rows land after chunk c-1's within every digit, which is what keeps the
  // pass stable), then a per-chunk scatter. A pass whose digit is the same
  // for every key would be the identity permutation and is skipped.
  const uint32_t passes = (key_bits_ + kMaxDigitBits - 1) / kMaxDigitBits;
  const uint32_t digit_bits =
      passes == 0 ? 0 : (key_bits_ + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const uint32_t mask = static_cast<uint32_t>(buckets - 1);
  const size_t sort_chunks =
      std::clamp<size_t>(n / (buckets * kMinRowsPerBucket), 1, chunks);
  auto sort_begin = [&](size_t c) { return n * c / sort_chunks; };
  std::vector<uint32_t> offsets(sort_chunks * buckets);
  for (uint32_t p = 0; p < passes; ++p) {
    const uint32_t shift = p * digit_bits;
    ParallelFor(mode, sort_chunks, [&](size_t c) {
      uint32_t* hist = offsets.data() + c * buckets;
      std::fill(hist, hist + buckets, 0u);
      for (size_t i = sort_begin(c); i < sort_begin(c + 1); ++i) {
        ++hist[(keys_[i] >> shift) & mask];
      }
    });
    uint32_t running = 0;
    bool identity = false;
    for (size_t d = 0; d < buckets; ++d) {
      const uint32_t digit_start = running;
      for (size_t c = 0; c < sort_chunks; ++c) {
        const uint32_t count = offsets[c * buckets + d];
        offsets[c * buckets + d] = running;
        running += count;
      }
      identity = identity || running - digit_start == n;
    }
    if (identity) {
      continue;
    }
    ParallelFor(mode, sort_chunks, [&](size_t c) {
      uint32_t* next = offsets.data() + c * buckets;
      for (size_t i = sort_begin(c); i < sort_begin(c + 1); ++i) {
        const uint32_t at = next[(keys_[i] >> shift) & mask]++;
        keys_alt_[at] = keys_[i];
        agents_alt_[at] = agents_[i];
      }
    });
    keys_.swap(keys_alt_);
    agents_.swap(agents_alt_);
  }

  // 3) Runs: a row starts a slot where its key differs from its
  // predecessor's. Count run heads per chunk, scan, then write each slot's
  // key and start, and build the occupancy bitmap and word ranks over the
  // slots. The chunk boundaries move forward to the next row whose key
  // opens a new occupancy word, so each word is written whole by exactly
  // one chunk; the previous build's words are cleared first.
  ClearOccupancy(mode);
  std::vector<size_t> run_begin(chunks + 1, n);
  run_begin[0] = 0;
  for (size_t c = 1; c < chunks; ++c) {
    size_t from = std::max(chunk_begin(c), run_begin[c - 1]);
    if (from > 0 && from < n) {
      const uint64_t next_word_key = (uint64_t{keys_[from - 1] / 64} + 1) * 64;
      from = static_cast<size_t>(
          std::lower_bound(keys_.begin() + static_cast<ptrdiff_t>(from),
                           keys_.end(), next_word_key) -
          keys_.begin());
    }
    run_begin[c] = from;
  }
  std::vector<uint32_t> first_slot(chunks + 1, 0);
  ParallelFor(mode, chunks, [&](size_t c) {
    uint32_t heads = 0;
    for (size_t i = run_begin[c]; i < run_begin[c + 1]; ++i) {
      heads += (i == 0 || keys_[i] != keys_[i - 1]) ? 1 : 0;
    }
    first_slot[c + 1] = heads;
  });
  for (size_t c = 0; c < chunks; ++c) {
    first_slot[c + 1] += first_slot[c];
  }
  const size_t occupied = first_slot[chunks];
  occupied_wb_.resize(occupied);
  starts_.resize(occupied + 1);
  ParallelFor(mode, chunks, [&](size_t c) {
    uint32_t s = first_slot[c];
    size_t word = occupancy_.size();  // none yet
    uint64_t bits = 0;
    for (size_t i = run_begin[c]; i < run_begin[c + 1]; ++i) {
      if (i == 0 || keys_[i] != keys_[i - 1]) {
        const uint32_t key = keys_[i];
        occupied_wb_[s] = key;
        starts_[s] = static_cast<int32_t>(i);
        if (key / 64 != word) {
          if (word < occupancy_.size()) {
            occupancy_[word] = bits;
          }
          word = key / 64;
          bits = 0;
          word_rank_[word] = s;
        }
        bits |= uint64_t{1} << (key % 64);
        ++s;
      }
    }
    if (word < occupancy_.size()) {
      occupancy_[word] = bits;
    }
  });
  starts_[occupied] = static_cast<int32_t>(n);

  owned_slot_begin_ = static_cast<uint32_t>(
      std::lower_bound(occupied_wb_.begin(), occupied_wb_.end(),
                       owned_key_begin_) -
      occupied_wb_.begin());
  owned_slot_end_ = static_cast<uint32_t>(
      std::lower_bound(occupied_wb_.begin(), occupied_wb_.end(),
                       owned_key_end_) -
      occupied_wb_.begin());
}

int ShardGrid::NeighborSlots(const void* self, uint32_t slot,
                             size_t out[27]) {
  const auto* grid = static_cast<const ShardGrid*>(self);
  const GridGeometry& g = grid->geometry_;
  const uint32_t wb = grid->occupied_wb_[slot];
  const size_t nx = static_cast<size_t>(g.num_boxes_axis.x);
  const size_t plane_size = grid->plane_size_;
  const size_t rem = wb % plane_size;
  const Int3 c{static_cast<int32_t>(rem % nx), static_cast<int32_t>(rem / nx),
               grid->window_planes_[wb / plane_size]};
  GridGeometry::XRun runs[2];
  const int num_runs = g.NeighborXRuns(c.x, runs);
  const uint64_t* occupancy = grid->occupancy_.data();
  int count = 0;
  g.ForEachNeighborRow(c, [&](int32_t z, int32_t y) {
    const int32_t wz = grid->plane_to_window_[static_cast<size_t>(z)];
    if (wz < 0) {
      return;  // Outside the window: no occupied box there can exist.
    }
    const size_t row = static_cast<size_t>(wz) * plane_size +
                       static_cast<size_t>(y) * nx;
    for (int r = 0; r < num_runs; ++r) {
      // The run's <= 3 occupancy bits: one word load, two when the run
      // straddles a word (then off >= 62, so both shifts are in range).
      const size_t k0 = row + static_cast<size_t>(runs[r].x0);
      const size_t w = k0 / 64;
      const uint32_t off = static_cast<uint32_t>(k0 % 64);
      const uint32_t len = static_cast<uint32_t>(runs[r].len);
      uint64_t bits = occupancy[w] >> off;
      if (off + len > 64) {
        bits |= occupancy[w + 1] << (64 - off);
      }
      bits &= (uint64_t{1} << len) - 1;
      if (bits == 0) {
        continue;
      }
      // The run's occupied boxes are consecutive occupied keys, so their
      // slots are consecutive from the first one's rank.
      uint32_t s =
          grid->Rank(k0 + static_cast<size_t>(std::countr_zero(bits)));
      do {
        out[count++] = s++;
        bits &= bits - 1;
      } while (bits != 0);
    }
  });
  return count;
}

void ShardGrid::ForEachNeighborWithinRadius(
    AgentIndex query, const Double3* positions, double radius,
    FunctionRef<void(AgentIndex, double)> fn) const {
  if (radius > geometry_.box_length + 1e-12) {
    // Out of contract in any build type: the traversal only visits the 27
    // surrounding boxes, so a larger radius would silently miss neighbors.
    throw std::invalid_argument(
        "grid query radius " + std::to_string(radius) +
        " exceeds the box length " + std::to_string(geometry_.box_length) +
        "; the grid only covers the 27 surrounding boxes");
  }
  const Double3 q = positions[query];
  const double r2 = radius * radius;
  const size_t nx = static_cast<size_t>(geometry_.num_boxes_axis.x);
  const int32_t* starts = starts_.data();
  const int32_t* agents = agents_.data();
  // Empty boxes have no slot and are skipped; planes outside the window
  // cannot occur for an owned query.
  geometry_.ForEachNeighborCoord(
      geometry_.BoxCoordinatesOf(q), [&](const Int3& c) {
        const int32_t wz = plane_to_window_[static_cast<size_t>(c.z)];
        if (wz < 0) {
          return;
        }
        const int32_t s = slot_of(static_cast<size_t>(wz) * plane_size_ +
                                  static_cast<size_t>(c.y) * nx +
                                  static_cast<size_t>(c.x));
        if (s < 0) {
          return;
        }
        for (int32_t t = starts[s]; t < starts[s + 1]; ++t) {
          const int32_t j = agents[t];
          if (static_cast<AgentIndex>(j) == query) {
            continue;
          }
          const double d2 =
              geometry_.torus
                  ? MinImageVector(q, positions[j], geometry_.edge)
                        .SquaredNorm()
                  : SquaredDistance(q, positions[j]);
          if (d2 <= r2) {
            fn(static_cast<AgentIndex>(j), d2);
          }
        }
      });
}

}  // namespace biosim
