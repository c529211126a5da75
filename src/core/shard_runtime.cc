#include "core/shard_runtime.h"

#include <algorithm>

namespace biosim {

namespace {

// Halo message tags: the direction the payload travels. Shard k's ghosts
// arrive on exactly these two channels, so even when both neighbors are the
// same shard (K == 2 on a torus) the messages stay distinguishable.
constexpr int kTagToUpper = 0;  // sender's last-plane rows -> shard above
constexpr int kTagToLower = 1;  // sender's first-plane rows -> shard below

}  // namespace

ShardRuntime::ShardRuntime(uint32_t shards, ShardBalance balance)
    : shards_(shards),
      balance_(balance),
      comm_(shards),
      grids_(shards),
      owned_rows_(shards),
      members_(shards),
      ghosts_received_(shards, 0) {}

void ShardRuntime::Repartition(const ResourceManager& rm, const Param& param) {
  geometry_ = GridGeometry::Derive(rm, param);
  const int32_t planes = geometry_.num_boxes_axis.z;
  const size_t n = rm.size();
  const auto& positions = rm.positions();

  row_plane_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    // Only the z bin matters for ownership.
    int32_t z = static_cast<int32_t>(
        std::floor((positions[i].z - geometry_.grid_min.z) *
                   geometry_.inv_box_length));
    row_plane_[i] = std::clamp(z, 0, planes - 1);
  }

  std::vector<uint64_t> plane_load;
  if (balance_ == ShardBalance::kAdaptive) {
    plane_load.assign(static_cast<size_t>(planes), 0);
    for (size_t i = 0; i < n; ++i) {
      ++plane_load[static_cast<size_t>(row_plane_[i])];
    }
  }
  partition_ = ShardPartition::Split(shards_, planes, balance_, plane_load);

  for (auto& rows : owned_rows_) {
    rows.clear();
  }
  // Ascending row order within each shard falls out of the forward scan.
  const auto& uids = rm.uids();
  uint64_t migrations = 0;
  const bool rows_comparable = prev_owner_.size() == n;
  for (size_t i = 0; i < n; ++i) {
    const int32_t owner = partition_.OwnerOfPlane(row_plane_[i]);
    owned_rows_[static_cast<size_t>(owner)].push_back(
        static_cast<int32_t>(i));
    if (rows_comparable && prev_uids_[i] == uids[i] &&
        prev_owner_[i] != owner) {
      ++migrations;
    }
  }
  last_migrations_ = migrations;
  prev_owner_.resize(n);
  for (uint32_t k = 0; k < shards_; ++k) {
    for (int32_t r : owned_rows_[k]) {
      prev_owner_[static_cast<size_t>(r)] = static_cast<int32_t>(k);
    }
  }
  prev_uids_.assign(uids.begin(), uids.end());
}

void ShardRuntime::ExchangeHalos(const ResourceManager& rm, ExecMode mode) {
  (void)rm;
  const int32_t k32 = static_cast<int32_t>(shards_);
  const bool torus = geometry_.torus;

  // Post phase: every shard ships its two face planes. The ParallelFor join
  // below is the protocol barrier between post and drain.
  ParallelFor(mode, shards_, [&](size_t sk) {
    const auto k = static_cast<uint32_t>(sk);
    if (shards_ == 1) {
      return;  // Torus wrap lands on the own window; no ghosts exist.
    }
    const int32_t first = partition_.first_plane(k);
    const int32_t last = partition_.end_plane(k) - 1;
    std::vector<int32_t> first_rows;
    std::vector<int32_t> last_rows;
    for (int32_t r : owned_rows_[k]) {
      const int32_t z = row_plane_[static_cast<size_t>(r)];
      if (z == first) {
        first_rows.push_back(r);
      }
      if (z == last) {
        last_rows.push_back(r);  // first == last when the shard owns 1 plane
      }
    }
    const int32_t up = (static_cast<int32_t>(k) + 1) % k32;
    const int32_t down = (static_cast<int32_t>(k) - 1 + k32) % k32;
    if (torus || static_cast<int32_t>(k) + 1 < k32) {
      comm_.Send<int32_t>(k, static_cast<uint32_t>(up), kTagToUpper,
                          std::move(last_rows));
    }
    if (torus || k > 0) {
      comm_.Send<int32_t>(k, static_cast<uint32_t>(down), kTagToLower,
                          std::move(first_rows));
    }
  });

  // Drain phase: ghosts := sorted, deduplicated union of the two inbound
  // face planes; members := owned ∪ ghosts (disjoint except the K == 2
  // torus, where both neighbors are the same shard and the wrap can deliver
  // a row twice — unique() restores canonical membership).
  ParallelFor(mode, shards_, [&](size_t sk) {
    const auto k = static_cast<uint32_t>(sk);
    std::vector<int32_t> ghosts;
    if (shards_ > 1) {
      const int32_t up = (static_cast<int32_t>(k) + 1) % k32;
      const int32_t down = (static_cast<int32_t>(k) - 1 + k32) % k32;
      if (torus || static_cast<int32_t>(k) + 1 < k32) {
        auto from_up = comm_.Recv<int32_t>(static_cast<uint32_t>(up), k,
                                           kTagToLower);
        ghosts.insert(ghosts.end(), from_up.begin(), from_up.end());
      }
      if (torus || k > 0) {
        auto from_down = comm_.Recv<int32_t>(static_cast<uint32_t>(down), k,
                                             kTagToUpper);
        ghosts.insert(ghosts.end(), from_down.begin(), from_down.end());
      }
      std::sort(ghosts.begin(), ghosts.end());
      ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
      // A ghost dropped here would silently truncate a neighborhood; count
      // before merging so shard/<k>/ghosts_shipped audits the full traffic.
      ghosts_received_[k] = ghosts.size();
    } else {
      ghosts_received_[k] = 0;
    }
    auto& members = members_[k];
    members.clear();
    members.reserve(owned_rows_[k].size() + ghosts.size());
    std::merge(owned_rows_[k].begin(), owned_rows_[k].end(), ghosts.begin(),
               ghosts.end(), std::back_inserter(members));
    members.erase(std::unique(members.begin(), members.end()), members.end());
  });
}

void ShardRuntime::UpdateGrids(const ResourceManager& rm, ExecMode mode) {
  bool reconfigure = !grids_configured_ ||
                     !geometry_.SameLattice(configured_geometry_) ||
                     configured_begin_ != partition_.plane_begin;
  if (reconfigure) {
    for (uint32_t k = 0; k < shards_; ++k) {
      grids_[k].Configure(geometry_, partition_.first_plane(k),
                          partition_.end_plane(k));
    }
    grids_configured_ = true;
    configured_geometry_ = geometry_;
    configured_begin_ = partition_.plane_begin;
  }
  const Double3* positions = rm.positions().data();
  ParallelFor(mode, shards_, [&](size_t k) {
    grids_[k].Update(members_[k], positions);
  });
}

std::vector<ShardForceInput> ShardRuntime::ForceInputs() const {
  std::vector<ShardForceInput> inputs(shards_);
  for (uint32_t k = 0; k < shards_; ++k) {
    inputs[k].view = grids_[k].View();
    inputs[k].first_box = grids_[k].owned_slot_begin();
    inputs[k].num_boxes =
        grids_[k].owned_slot_end() - grids_[k].owned_slot_begin();
  }
  return inputs;
}

}  // namespace biosim
