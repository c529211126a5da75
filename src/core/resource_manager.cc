#include "core/resource_manager.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace biosim {

void ResourceManager::Reserve(size_t n) {
  positions_.reserve(n);
  diameters_.reserve(n);
  volumes_.reserve(n);
  adherences_.reserve(n);
  densities_.reserve(n);
  tractor_forces_.reserve(n);
  uids_.reserve(n);
  behaviors_.reserve(n);
}

void ResourceManager::AppendRow(NewAgentSpec&& spec) {
  positions_.push_back(spec.position);
  diameters_.push_back(spec.diameter);
  volumes_.push_back(math::SphereVolume(spec.diameter));
  adherences_.push_back(spec.adherence);
  densities_.push_back(spec.density);
  tractor_forces_.push_back(spec.tractor_force);
  uids_.push_back(next_uid_++);
  behaviors_.push_back(std::move(spec.behaviors));
}

AgentIndex ResourceManager::AddAgent(NewAgentSpec spec) {
  AppendRow(std::move(spec));
  return positions_.size() - 1;
}

void ResourceManager::RemoveRowSwap(AgentIndex idx) {
  size_t last = positions_.size() - 1;
  if (idx != last) {
    positions_[idx] = positions_[last];
    diameters_[idx] = diameters_[last];
    volumes_[idx] = volumes_[last];
    adherences_[idx] = adherences_[last];
    densities_[idx] = densities_[last];
    tractor_forces_[idx] = tractor_forces_[last];
    uids_[idx] = uids_[last];
    behaviors_[idx] = std::move(behaviors_[last]);
  }
  positions_.pop_back();
  diameters_.pop_back();
  volumes_.pop_back();
  adherences_.pop_back();
  densities_.pop_back();
  tractor_forces_.pop_back();
  uids_.pop_back();
  behaviors_.pop_back();
}

size_t ResourceManager::CommitStructuralChanges(
    std::vector<AgentIndex> removals, std::vector<NewAgentSpec> births) {
  // Removals first, from highest row to lowest so swap-with-last never moves
  // a row that is itself scheduled for removal into an already-processed
  // slot.
  std::sort(removals.begin(), removals.end());
  removals.erase(std::unique(removals.begin(), removals.end()),
                 removals.end());
  for (auto it = removals.rbegin(); it != removals.rend(); ++it) {
    assert(*it < positions_.size());
    RemoveRowSwap(*it);
  }
  for (NewAgentSpec& spec : births) {
    AppendRow(std::move(spec));
  }
  return removals.size() + births.size();
}

void ResourceManager::ApplyPermutation(const std::vector<AgentIndex>& perm) {
  assert(perm.size() == positions_.size());
  size_t n = perm.size();

  auto permute = [&](auto& vec) {
    using V = std::remove_reference_t<decltype(vec)>;
    V out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(vec[perm[i]]));
    }
    vec = std::move(out);
  };

  permute(positions_);
  permute(diameters_);
  permute(volumes_);
  permute(adherences_);
  permute(densities_);
  permute(tractor_forces_);
  permute(uids_);
  permute(behaviors_);
}

double ResourceManager::LargestDiameter() const {
  double d = 0.0;
  for (double v : diameters_) {
    d = std::max(d, v);
  }
  return d;
}

AABBd ResourceManager::Bounds() const {
  AABBd box;
  for (const auto& p : positions_) {
    box.Extend(p);
  }
  return box;
}

void ResourceManager::RestorePopulation(
    std::vector<Double3> positions, std::vector<double> diameters,
    std::vector<double> volumes, std::vector<double> adherences,
    std::vector<double> densities, std::vector<Double3> tractor_forces,
    std::vector<AgentUid> uids, AgentUid next_uid) {
  size_t n = positions.size();
  if (diameters.size() != n || volumes.size() != n || adherences.size() != n ||
      densities.size() != n || tractor_forces.size() != n ||
      uids.size() != n) {
    throw std::invalid_argument(
        "RestorePopulation: attribute arrays have inconsistent sizes");
  }
  positions_ = std::move(positions);
  diameters_ = std::move(diameters);
  volumes_ = std::move(volumes);
  adherences_ = std::move(adherences);
  densities_ = std::move(densities);
  tractor_forces_ = std::move(tractor_forces);
  uids_ = std::move(uids);
  behaviors_.clear();
  behaviors_.resize(n);
  owned_behaviors_.clear();
  next_uid_ = next_uid;
}

double ResourceManager::TotalVolume() const {
  double v = 0.0;
  for (double x : volumes_) {
    v += x;
  }
  return v;
}

}  // namespace biosim
