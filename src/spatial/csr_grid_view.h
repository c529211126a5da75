// A minimal, backend-neutral view of a CSR box layout for the fused force
// kernel.
//
// The kernel only ever touches three things: the exclusive-scan offsets,
// the member rows, and "which slots form the 3x3x3 block around slot s". The occupancy-compacted CSR (spatial/shard_grid.h)
// provides it with slot == occupied-box index, whether its window is the
// whole lattice (the uniform grid) or one spatial shard. Handing the
// kernels this view keeps the per-ISA kernel TUs free of the grid class and
// means ONE compiled kernel body serves every window — which is precisely
// what makes the sharded force pass bitwise-identical to the unsharded one:
// same instructions, same candidate values in the same canonical order
// (docs/sharding.md).
//
// The neighbor resolver is a plain function pointer (not std::function, not
// virtual — biosim-lint's hot-loop rule stays happy), called once per box,
// never per candidate. It must enumerate present slots in the canonical
// (dz, dy, dx) block order of GridGeometry::ForEachNeighborCoord; resolvers
// may skip boxes with no members, since an empty box contributes nothing to
// the candidate stream.
#ifndef BIOSIM_SPATIAL_CSR_GRID_VIEW_H_
#define BIOSIM_SPATIAL_CSR_GRID_VIEW_H_

#include <cstddef>
#include <cstdint>

namespace biosim {

struct CsrGridView {
  /// Exclusive prefix sum over slots; size = slot count + 1.
  const int32_t* box_starts = nullptr;
  /// Agent rows grouped by slot, ascending within each slot.
  const int32_t* box_agents = nullptr;
  /// Entries of box_agents (the window's members).
  size_t num_members = 0;
  /// Fill `out` with the slots of the (up to 27) neighbor boxes of `slot`,
  /// canonical (dz, dy, dx) order; returns the count. `self` is the backing
  /// structure the resolver reads.
  int (*neighbor_slots)(const void* self, uint32_t slot,
                        size_t out[27]) = nullptr;
  const void* self = nullptr;
};

/// One CSR window's slice of a fused force pass (docs/sharding.md): its
/// view (owned + halo members) and its owned occupied boxes, the slots
/// [first_box, first_box + num_boxes). An Environment hands these to the
/// force pass through Environment::ForceInputs: the uniform grid as one
/// input owning every slot, the shard runtime as one per shard, whose owned
/// boxes partition the global non-empty box set, so every agent row is
/// written by exactly one input.
struct ShardForceInput {
  CsrGridView view;
  uint32_t first_box = 0;
  size_t num_boxes = 0;
  /// Box edge of the window's lattice; the 27-box scheme only finds
  /// neighbors within one box length.
  double box_length = 0.0;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_CSR_GRID_VIEW_H_
