#include "spatial/uniform_grid.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace biosim {

void UniformGridEnvironment::Update(const ResourceManager& rm,
                                    const Param& param, ExecMode mode,
                                    OpProfile* /*profile: one phase*/) {
  const size_t n = rm.size();
  CheckCsrAgentCount(n);

  // Derive is the same function spatial shards bin with (grid_geometry.h).
  // The window is rebuilt only when the box lattice moved; without a torus
  // or fixed bounds grid_min tracks rm.Bounds(), so that is most steps, and
  // Configure costs O(previously occupied boxes), not O(total boxes).
  const GridGeometry candidate =
      GridGeometry::Derive(rm, param, fixed_box_length_);
  interaction_radius_ = candidate.interaction_radius;
  if (!configured_ || !candidate.SameLattice(geometry_)) {
    csr_.Configure(candidate, 0, candidate.num_boxes_axis.z);
    configured_ = true;
  }
  geometry_ = candidate;
  csr_.Update(n, rm.positions().data(), mode);
  whole_ = {csr_.View(), csr_.owned_slot_begin(),
            csr_.owned_slot_end() - csr_.owned_slot_begin(),
            geometry_.box_length};
  ++rebuilds_;
}

void UniformGridEnvironment::CheckCsrAgentCount(size_t n) {
  if (n > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    throw std::length_error(
        "UniformGridEnvironment: population " + std::to_string(n) +
        " exceeds the 2^31-1 agents the int32 CSR offsets can address "
        "(box_starts/box_agents, mirrored by the GPU offload); the "
        "scan would silently wrap");
  }
}

double UniformGridEnvironment::MeanAgentsPerBox() const {
  const size_t occupied = csr_.occupied_boxes();
  return occupied == 0 ? 0.0
                       : static_cast<double>(csr_.box_agents().size()) /
                             static_cast<double>(occupied);
}

double UniformGridEnvironment::MeanNeighborCount(const ResourceManager& rm,
                                                 size_t sample_stride) const {
  if (rm.empty()) {
    return 0.0;
  }
  // A zero stride would loop forever on the first agent; treat it as "sample
  // everything" instead.
  sample_stride = std::max<size_t>(1, sample_stride);
  size_t count = 0;
  size_t samples = 0;
  for (size_t i = 0; i < rm.size(); i += sample_stride) {
    ++samples;
    ForEachNeighborWithinRadius(
        i, rm, interaction_radius_,
        [&](AgentIndex, double) { ++count; });
  }
  return static_cast<double>(count) / static_cast<double>(samples);
}

}  // namespace biosim
