#include "spatial/kd_tree.h"

#include <algorithm>
#include <cassert>

namespace biosim {

void KdTreeEnvironment::Update(const ResourceManager& rm, const Param& param,
                               ExecMode mode) {
  interaction_radius_ = rm.LargestDiameter() + param.interaction_radius_margin;

  // Step 1: build. Serial regardless of `mode` — this is the structural
  // property of the baseline that the paper's uniform grid removes. (A
  // parallel kd-tree build exists in the literature, but the baseline under
  // study does not have one.)
  size_t n = rm.size();
  indices_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    indices_[i] = i;
  }
  nodes_.clear();
  nodes_.reserve(n / leaf_size_ * 2 + 2);
  if (n > 0) {
    BuildNode(rm.positions(), 0, static_cast<uint32_t>(n));
  }

  // Step 2: search all agents' neighbors within the interaction radius and
  // cache the lists (the baseline's "searching" half of the neighborhood
  // update; parallel over agents).
  if (!cache_neighbor_lists_) {
    return;
  }
  scratch_.resize(n);
  ParallelFor(mode, n, [&](size_t i) {
    scratch_[i].clear();
    QueryTree(i, rm, interaction_radius_, [&](AgentIndex j, double d2) {
      scratch_[i].push_back({static_cast<uint32_t>(j), d2});
    });
  });
  offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    offsets_[i + 1] = offsets_[i] + scratch_[i].size();
  }
  neighbors_.resize(offsets_[n]);
  ParallelFor(mode, n, [&](size_t i) {
    std::copy(scratch_[i].begin(), scratch_[i].end(),
              neighbors_.begin() + static_cast<ptrdiff_t>(offsets_[i]));
  });
}

uint32_t KdTreeEnvironment::BuildNode(const std::vector<Double3>& pos,
                                      uint32_t begin, uint32_t end) {
  uint32_t node_idx = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back({begin, end, kNoChild, 0, 0.0});

  if (end - begin <= leaf_size_) {
    return node_idx;  // leaf
  }

  // Split on the widest axis at the median.
  AABBd box;
  for (uint32_t i = begin; i < end; ++i) {
    box.Extend(pos[indices_[i]]);
  }
  Double3 size = box.Size();
  uint8_t axis = 0;
  if (size.y > size.x) {
    axis = 1;
  }
  if (size.z > size[axis]) {
    axis = 2;
  }

  uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(indices_.begin() + begin, indices_.begin() + mid,
                   indices_.begin() + end,
                   [&](uint32_t a, uint32_t b) { return pos[a][axis] < pos[b][axis]; });

  // Degenerate case: all coordinates equal on this axis -> keep as leaf to
  // guarantee termination.
  if (pos[indices_[mid]][axis] == pos[indices_[begin]][axis] &&
      pos[indices_[mid]][axis] == pos[indices_[end - 1]][axis]) {
    return node_idx;
  }

  nodes_[node_idx].axis = axis;
  nodes_[node_idx].split = pos[indices_[mid]][axis];

  // Preorder layout: left subtree immediately follows this node.
  BuildNode(pos, begin, mid);
  uint32_t right = BuildNode(pos, mid, end);
  nodes_[node_idx].right = right;
  return node_idx;
}

void KdTreeEnvironment::ForEachNeighborWithinRadius(AgentIndex query,
                                                    const ResourceManager& rm,
                                                    double radius,
                                                    NeighborFn fn) const {
  if (cache_neighbor_lists_ && query + 1 < offsets_.size()) {
    double r2 = radius * radius;
    for (size_t k = offsets_[query]; k < offsets_[query + 1]; ++k) {
      const CachedNeighbor& cn = neighbors_[k];
      if (cn.squared_distance <= r2) {
        fn(cn.index, cn.squared_distance);
      }
    }
    return;
  }
  QueryTree(query, rm, radius, fn);
}

void KdTreeEnvironment::QueryTree(AgentIndex query, const ResourceManager& rm,
                                  double radius, NeighborFn fn) const {
  if (nodes_.empty()) {
    return;
  }
  const auto& pos = rm.positions();
  const Double3 q = pos[query];
  const double r2 = radius * radius;

  // Explicit stack; depth is O(log n) but degenerate inputs are bounded by
  // 64 levels of median splits on 2^32 max agents anyway.
  uint32_t stack[96];
  size_t top = 0;
  stack[top++] = 0;

  while (top > 0) {
    const Node& node = nodes_[stack[--top]];
    if (node.right == kNoChild) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        uint32_t j = indices_[i];
        if (j == query) {
          continue;
        }
        double d2 = SquaredDistance(q, pos[j]);
        if (d2 <= r2) {
          fn(j, d2);
        }
      }
      continue;
    }
    double delta = q[node.axis] - node.split;
    // Visit the near side always; the far side only if the splitting plane
    // is within the radius.
    uint32_t left = static_cast<uint32_t>(&node - nodes_.data()) + 1;
    uint32_t near_child = delta < 0.0 ? left : node.right;
    uint32_t far_child = delta < 0.0 ? node.right : left;
    if (delta * delta <= r2) {
      assert(top < 95);
      stack[top++] = far_child;
    }
    assert(top < 95);
    stack[top++] = near_child;
  }
}

size_t KdTreeEnvironment::Depth() const {
  // Compute depth by walking the preorder layout.
  if (nodes_.empty()) {
    return 0;
  }
  struct Item {
    uint32_t node;
    size_t depth;
  };
  std::vector<Item> stack{{0, 1}};
  size_t max_depth = 1;
  while (!stack.empty()) {
    auto [ni, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[ni];
    if (node.right != kNoChild) {
      stack.push_back({ni + 1, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return max_depth;
}

}  // namespace biosim
