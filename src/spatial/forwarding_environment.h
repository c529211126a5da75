// ForwardingEnvironment: an Environment that owns another one and forwards
// every call to it.
//
// It exists to be the fused force kernel's oracle. MechanicalForcesOp
// recognizes the uniform grid by dynamic_cast and then runs the fused CSR
// kernel; a wrapped grid is not recognized, so the same neighbor structure
// is walked through the generic per-agent callback path instead. The two
// paths owe bitwise-identical displacements (docs/determinism.md), so a
// wrapped and an unwrapped grid must end every run on the same StateHash.
#ifndef BIOSIM_SPATIAL_FORWARDING_ENVIRONMENT_H_
#define BIOSIM_SPATIAL_FORWARDING_ENVIRONMENT_H_

#include <memory>
#include <utility>

#include "spatial/environment.h"

namespace biosim {

class ForwardingEnvironment : public Environment {
 public:
  explicit ForwardingEnvironment(std::unique_ptr<Environment> inner)
      : inner_(std::move(inner)) {}

  void Update(const ResourceManager& rm, const Param& param,
              ExecMode mode) override {
    inner_->Update(rm, param, mode);
  }

  void ForEachNeighborWithinRadius(AgentIndex query, const ResourceManager& rm,
                                   double radius,
                                   NeighborFn fn) const override {
    inner_->ForEachNeighborWithinRadius(query, rm, radius, fn);
  }

  double interaction_radius() const override {
    return inner_->interaction_radius();
  }
  const char* name() const override { return "forwarding"; }

 private:
  std::unique_ptr<Environment> inner_;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_FORWARDING_ENVIRONMENT_H_
