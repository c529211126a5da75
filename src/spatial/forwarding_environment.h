// ForwardingEnvironment: an Environment that owns another one and forwards
// every call to it — except ForceInputs().
//
// It exists to be the fused force kernel's oracle. MechanicalForcesOp runs
// the fused CSR kernel over whatever windows Environment::ForceInputs()
// returns; this wrapper deliberately returns none, so the same neighbor
// structure (the uniform grid, or the shard runtime's per-shard windows) is
// walked through the generic per-agent callback path instead. The two
// paths owe bitwise-identical displacements (docs/determinism.md), so a
// wrapped and an unwrapped environment must end every run on the same
// StateHash.
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

  void Update(const ResourceManager& rm, const Param& param, ExecMode mode,
              OpProfile* profile = nullptr) override {
    inner_->Update(rm, param, mode, profile);
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
  bool answers_neighbor_queries() const override {
    return inner_->answers_neighbor_queries();
  }
  bool supports_torus() const override { return inner_->supports_torus(); }
  bool supports_shards() const override { return inner_->supports_shards(); }
  // ForceInputs() is not forwarded: the default (none) is the point.

 private:
  std::unique_ptr<Environment> inner_;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_FORWARDING_ENVIRONMENT_H_
