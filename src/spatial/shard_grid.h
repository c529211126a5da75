// Occupancy-compacted CSR over a window of the shared box lattice — the one
// CPU neighbor structure.
//
// A window is a set of whole z-planes of the lattice GridGeometry::Derive
// produces. The unsharded uniform grid (spatial/uniform_grid.h) is the
// whole-lattice window; a spatial shard's window is its owned planes plus
// one halo plane on each side. Only occupied boxes are stored: slot s is the
// s-th occupied window box in ascending key order, box_starts/box_agents are
// indexed by slot, and a dense slot map resolves a window box to its slot.
// The map is never cleared: an entry counts only if the slot it names maps
// back to the same box (the sparse-set check), so stale entries from earlier
// builds are harmless and a rebuild costs O(members + occupied boxes) per
// step, independent of the total box count — the 98%-empty lattices of
// sparse populations cost nothing (docs/perf.md "Compacted CSR").
//
// The build is one stable LSD radix sort of (window box key, row) pairs.
// Rows enter in ascending order and every pass is stable, so each box's run
// comes out ascending by row: the canonical order the paper's Fig. 5 chains
// were sorted into before, now produced by construction. The sort runs
// chunk-parallel (per-chunk digit histograms, a chunk-ordered prefix,
// per-chunk scatter); a stable sort's output is unique, so the CSR bytes do
// not depend on the chunk or thread count.
//
// Bitwise contract: NeighborSlots enumerates the 3x3x3 block in the
// canonical (dz, dy, dx) order via the shared
// GridGeometry::ForEachNeighborCoord, skipping unoccupied boxes (which
// contribute no candidates). A fused force pass therefore streams, for every
// owned box, the identical candidate values in the identical order whether
// the window is the whole lattice or one shard's slab: the displacement of
// every owned row is bit-for-bit the unsharded one (docs/sharding.md).
//
// Window planes are kept in ascending global z, so window keys order boxes
// exactly like global flat indices; in the whole-lattice window the key IS
// the flat box index. The owned planes are one contiguous run of window
// planes, so the owned boxes are one contiguous slot range — the force
// pass's traversal list. Every 27-block of an owned box resolves inside the
// window by construction (halo planes wrap on a torus, clamp at open faces).
#ifndef BIOSIM_SPATIAL_SHARD_GRID_H_
#define BIOSIM_SPATIAL_SHARD_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/math.h"
#include "core/thread_pool.h"
#include "spatial/csr_grid_view.h"
#include "spatial/grid_geometry.h"

namespace biosim {

class ShardGrid {
 public:
  /// Set the lattice and the owned plane range [owned_begin, owned_end).
  /// O(planes + window growth): the slot map is not cleared, so a lattice
  /// that changes every step (open domains track the population's bounds)
  /// never pays for its empty boxes. Throws std::length_error when the
  /// window has more boxes than 32-bit keys address.
  void Configure(const GridGeometry& geometry, int32_t owned_begin,
                 int32_t owned_end);

  /// Rebuild the compacted CSR for `members` (global agent rows, ascending,
  /// deduplicated: the shard's owned rows merged with its halo ghosts).
  /// Every member must bin into the window — a row outside it means the
  /// halo/migration protocol broke; throws std::logic_error.
  void Update(const std::vector<int32_t>& members, const Double3* positions,
              ExecMode mode = ExecMode::kSerial);

  /// Whole-population twin: the members are rows [0, n).
  void Update(size_t n, const Double3* positions, ExecMode mode);

  /// CSR view for the fused force kernels. Valid until the next Update().
  CsrGridView View() const {
    CsrGridView v;
    v.box_starts = starts_.data();
    v.box_agents = agents_.data();
    v.neighbor_slots = &ShardGrid::NeighborSlots;
    v.self = this;
    return v;
  }

  /// Occupied boxes in owned planes: slots [owned_slot_begin(),
  /// owned_slot_end()), ascending — the force pass's traversal list. Their
  /// resident runs contain exactly the owned rows.
  uint32_t owned_slot_begin() const { return owned_slot_begin_; }
  uint32_t owned_slot_end() const { return owned_slot_end_; }

  size_t occupied_boxes() const { return occupied_wb_.size(); }
  /// Window box of each slot, ascending.
  const std::vector<uint32_t>& occupied_keys() const { return occupied_wb_; }
  /// Slot of window box `wb`, or -1 when it holds no member.
  int32_t slot_of(size_t wb) const {
    const uint32_t s = slot_of_[wb];
    return s < occupied_wb_.size() && occupied_wb_[s] == wb
               ? static_cast<int32_t>(s)
               : -1;
  }
  /// Exclusive prefix sum over slots; size occupied_boxes() + 1.
  const std::vector<int32_t>& box_starts() const { return starts_; }
  /// Member rows grouped by slot, ascending within each slot.
  const std::vector<int32_t>& box_agents() const { return agents_; }
  const GridGeometry& geometry() const { return geometry_; }
  int32_t owned_begin() const { return owned_begin_; }
  int32_t owned_end() const { return owned_end_; }
  /// Number of z-planes in the window (owned + halo).
  size_t window_planes() const { return window_planes_.size(); }

  /// CsrGridView resolver: slots of the occupied boxes in the 3x3x3 block
  /// around `slot`'s box, canonical (dz, dy, dx) order.
  static int NeighborSlots(const void* self, uint32_t slot, size_t out[27]);

 private:
  /// The builder behind both Update overloads; `members` == nullptr means
  /// the identity rows [0, n).
  void Build(const int32_t* members, size_t n, const Double3* positions,
             ExecMode mode);

  GridGeometry geometry_;
  int32_t owned_begin_ = 0;
  int32_t owned_end_ = 0;
  /// Boxes per plane (nx * ny).
  size_t plane_size_ = 0;
  /// Bits a window key needs (the radix sort's pass count derives from it).
  uint32_t key_bits_ = 0;
  /// Window keys of the owned planes: [owned_key_begin_, owned_key_end_).
  uint32_t owned_key_begin_ = 0;
  uint32_t owned_key_end_ = 0;
  /// Global z-plane -> window plane index, -1 when outside the window.
  std::vector<int32_t> plane_to_window_;
  /// Window plane index -> global z-plane, ascending.
  std::vector<int32_t> window_planes_;
  /// Window box -> slot; meaningful only where slot_of() validates it.
  std::vector<uint32_t> slot_of_;
  /// Slot -> window box, ascending.
  std::vector<uint32_t> occupied_wb_;
  std::vector<int32_t> starts_;
  std::vector<int32_t> agents_;
  uint32_t owned_slot_begin_ = 0;
  uint32_t owned_slot_end_ = 0;
  /// Radix-sort double buffers (keys and rows), reused across steps.
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> keys_alt_;
  std::vector<int32_t> agents_alt_;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_SHARD_GRID_H_
