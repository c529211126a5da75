// kd-tree environment: the baseline the paper replaces.
//
// Median-split balanced kd-tree over agent centers, rebuilt from scratch
// every step (agents move every step, so incremental maintenance does not
// pay off — this matches the BioDynaMo v0.0.9 baseline). Like that
// baseline, Update() runs in the two steps the paper's Section III
// describes: (1) build the kd-tree — inherently serial top-down — and
// (2) search every agent's neighbors within the interaction radius and
// cache the lists (parallelizable). The serial build step is exactly why
// the multithreaded kd-tree falls behind the uniform grid in Fig. 8.
#ifndef BIOSIM_SPATIAL_KD_TREE_H_
#define BIOSIM_SPATIAL_KD_TREE_H_

#include <cstdint>
#include <vector>

#include "spatial/environment.h"

namespace biosim {

class KdTreeEnvironment : public Environment {
 public:
  /// `leaf_size`: stop splitting below this many agents per node.
  /// `cache_neighbor_lists`: perform the baseline's second update step
  /// (precompute every agent's neighbor list); disable to query the tree
  /// lazily instead.
  explicit KdTreeEnvironment(size_t leaf_size = 16,
                             bool cache_neighbor_lists = true)
      : leaf_size_(leaf_size), cache_neighbor_lists_(cache_neighbor_lists) {}

  void Update(const ResourceManager& rm, const Param& param, ExecMode mode,
              OpProfile* profile = nullptr) override;

  void ForEachNeighborWithinRadius(AgentIndex query,
                                   const ResourceManager& rm, double radius,
                                   NeighborFn fn) const override;

  double interaction_radius() const override { return interaction_radius_; }
  const char* name() const override { return "kd-tree"; }

  /// Tree depth (diagnostics / tests).
  size_t Depth() const;

  bool caches_neighbor_lists() const { return cache_neighbor_lists_; }

 private:
  struct CachedNeighbor {
    uint32_t index;
    double squared_distance;
  };

  /// Query the tree directly (used to build the cache, and for lazy mode).
  void QueryTree(AgentIndex query, const ResourceManager& rm, double radius,
                 NeighborFn fn) const;

  struct Node {
    // Leaf when right == kNoChild: points are indices_[begin, end).
    // Internal: left child is node i+1 (preorder layout), right child is
    // `right`; split plane is `split` on `axis`.
    uint32_t begin = 0;
    uint32_t end = 0;
    uint32_t right = kNoChild;
    uint8_t axis = 0;
    double split = 0.0;
  };
  static constexpr uint32_t kNoChild = ~uint32_t{0};

  /// Recursively build the subtree over indices_[begin, end); returns the
  /// index of the created node.
  uint32_t BuildNode(const std::vector<Double3>& pos, uint32_t begin,
                     uint32_t end);

  size_t leaf_size_;
  bool cache_neighbor_lists_;
  double interaction_radius_ = 0.0;
  std::vector<Node> nodes_;
  std::vector<uint32_t> indices_;
  // Cached per-agent neighbor lists (flattened: offsets_[i]..offsets_[i+1]).
  std::vector<CachedNeighbor> neighbors_;
  std::vector<size_t> offsets_;
  // Per-agent scratch for the cache build; member so its capacity amortizes
  // across steps (reallocation would otherwise dominate the search phase).
  std::vector<std::vector<CachedNeighbor>> scratch_;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_KD_TREE_H_
