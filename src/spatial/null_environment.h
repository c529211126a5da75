// NullEnvironment: placeholder for pipelines whose mechanics backend builds
// its own spatial index (the GPU offload ports the uniform-grid construction
// to the device, so a host-side index would be dead work). Querying it
// throws in every build type (Simulation::Validate rejects it earlier).
#ifndef BIOSIM_SPATIAL_NULL_ENVIRONMENT_H_
#define BIOSIM_SPATIAL_NULL_ENVIRONMENT_H_

#include <stdexcept>

#include "spatial/environment.h"

namespace biosim {

class NullEnvironment : public Environment {
 public:
  void Update(const ResourceManager& rm, const Param& param,
              ExecMode mode) override {
    (void)mode;
    interaction_radius_ = rm.LargestDiameter() + param.interaction_radius_margin;
  }

  void ForEachNeighborWithinRadius(AgentIndex, const ResourceManager&, double,
                                   NeighborFn) const override {
    throw std::logic_error(
        "NullEnvironment cannot answer neighbor queries; use a kd-tree or "
        "uniform-grid environment");
  }

  double interaction_radius() const override { return interaction_radius_; }
  const char* name() const override { return "null"; }
  bool answers_neighbor_queries() const override { return false; }

 private:
  double interaction_radius_ = 0.0;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_NULL_ENVIRONMENT_H_
