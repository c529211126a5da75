// A minimal, backend-neutral view of a CSR box layout for the fused force
// kernels.
//
// The scalar and SIMD force passes only ever touch three things: the
// exclusive-scan offsets, the member rows, and "which slots form the 3x3x3
// block around slot s". The occupancy-compacted CSR (spatial/shard_grid.h)
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
  /// Fill `out` with the slots of the (up to 27) neighbor boxes of `slot`,
  /// canonical (dz, dy, dx) order; returns the count. `self` is the backing
  /// structure the resolver reads.
  int (*neighbor_slots)(const void* self, uint32_t slot,
                        size_t out[27]) = nullptr;
  const void* self = nullptr;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_CSR_GRID_VIEW_H_
