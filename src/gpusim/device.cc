#include "gpusim/device.h"

#include <algorithm>

#include "core/thread_pool.h"

namespace biosim::gpusim {

uint64_t WarpTracker::AddWide(uint64_t addr, uint32_t bytes) {
  wide_.push_back({addr, bytes});
  return kWide | (wide_.size() - 1);
}

void WarpTracker::ConsumeLines(MemoryModel* mem, KernelStats* stats,
                               MeterBuffer* defer, bool write) {
  (write ? stats->write_transactions : stats->read_transactions) +=
      lines_.size();
  if (defer == nullptr) {
    mem->ProbeLines(lines_.data(), lines_.size(), write, stats);
    return;
  }
  // Deferred (block-parallel) path: the caches are shared and stateful, so
  // the lines wait for the in-block-order replay after the join.
  for (uint64_t line : lines_) {
    defer->line_entries.push_back((line << 1) | static_cast<uint64_t>(write));
  }
}

void WarpTracker::Flush(MemoryModel* mem, KernelStats* stats,
                        MeterBuffer* defer) {
  // Walk the (kind, seq) rows in the legacy consumption order — read seqs
  // ascending, then write seqs; lane order within a row — coalescing each
  // row straight from the lane streams.
  for (StreamKind kind : {StreamKind::kRead, StreamKind::kWrite}) {
    const size_t k = static_cast<size_t>(kind);
    const size_t rows = stream_.rows(k);
    for (size_t seq = 0; seq < rows; ++seq) {
      MemoryModel::CoalesceLines(&lines_, [&](auto&& emit) {
        stream_.ForEachInRow(k, seq, [&](uint64_t rec) {
          EmitRecordLines(kind, rec, emit);
        });
      });
      ConsumeLines(mem, stats, defer, kind == StreamKind::kWrite);
    }
  }

  // Then atomic seqs. A global atomic charges its traffic like a write; a
  // shared one stays on chip (its lane charged shared bytes), so only the
  // serialization below sees it.
  const size_t k = static_cast<size_t>(StreamKind::kAtomic);
  const size_t rows = stream_.rows(k);
  for (size_t seq = 0; seq < rows; ++seq) {
    uint64_t recs[WarpAccessStream::kWarpSize];
    size_t n = 0;
    stream_.ForEachInRow(k, seq, [&](uint64_t rec) { recs[n++] = rec; });
    MemoryModel::CoalesceLines(&lines_, [&](auto&& emit) {
      for (size_t i = 0; i < n; ++i) {
        if (AtomicAddr(recs[i]) < kSharedBase) {
          EmitRecordLines(StreamKind::kAtomic, recs[i], emit);
        }
      }
    });
    ConsumeLines(mem, stats, defer, /*write=*/true);
    // Atomic serialization: k lanes updating the same address serialize
    // into k steps, k-1 of which are stalls. The row has been coalesced, so
    // its records may become addresses and be sorted in place.
    for (size_t i = 0; i < n; ++i) {
      recs[i] = AtomicAddr(recs[i]);
    }
    stats->atomic_ops += n;
    std::sort(recs, recs + n);
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j < n && recs[j] == recs[i]) {
        ++j;
      }
      stats->atomic_serialized += (j - i) - 1;
      i = j;
    }
  }

  stream_.Clear();
  wide_.clear();

  // Divergence: a warp issues in lockstep, so the warp occupies
  // 32 * max(lane ops) issue slots while only sum(lane ops) do useful work.
  // The per-lane counters are zeroed as they are read.
  uint64_t max_ops = 0;
  uint64_t sum_ops = 0;
  uint64_t max_mem = 0;
  for (size_t l = 0; l < WarpAccessStream::kWarpSize; ++l) {
    max_ops = std::max(max_ops, lane_ops_[l]);
    sum_ops += lane_ops_[l];
    max_mem = std::max(max_mem, lane_mem_ops_[l]);
    lane_ops_[l] = 0;
    lane_mem_ops_[l] = 0;
  }
  if (max_ops > 0) {
    stats->lane_ops_sum += sum_ops;
    stats->warp_ops_slots += 32 * max_ops;
  }
  stats->max_lane_mem_ops = std::max(stats->max_lane_mem_ops, max_mem);
}

KernelStats Device::Launch(const LaunchConfig& cfg,
                           const std::function<void(BlockCtx&)>& kernel) {
  KernelStats raw;
  raw.name = cfg.name;
  raw.grid_dim = cfg.grid_dim;
  raw.block_dim = cfg.block_dim;
  raw.total_threads = static_cast<uint64_t>(cfg.grid_dim) * cfg.block_dim;
  raw.meter_stride = stride_;
  assert(cfg.block_dim >= 1 &&
         cfg.block_dim <= static_cast<size_t>(spec_.max_threads_per_block));

  if (sanitizer_) {
    sanitizer_->BeginLaunch(cfg.name, cfg.grid_dim, cfg.block_dim);
  }

  // The sanitizer's race detector is stateful across blocks, so a
  // sanitized launch stays one chunk.
  const size_t n_chunks =
      cfg.block_parallel_safe && sanitizer_ == nullptr && cfg.grid_dim > 1
          ? std::min<size_t>(cfg.grid_dim,
                             std::max<uint32_t>(1, HardwareThreads()))
          : 1;
  const size_t chunk = (cfg.grid_dim + n_chunks - 1) / n_chunks;

  // The one block loop. Warps are sampled by their launch-wide index, so a
  // range starts its counter at begin * W once block 0 has fixed the warps
  // per block W. Returns the first block of a block_parallel_safe launch
  // that broke the uniform-phase contract (a later chunk would sample the
  // wrong warps), or grid_dim if none did.
  size_t warps_per_block = 0;
  auto run_blocks = [&](size_t begin, size_t end, WarpTracker* tracker,
                        MeterBuffer* defer) {
    KernelStats* stats = defer != nullptr ? &defer->stats : &raw;
    size_t warp = begin * warps_per_block;
    for (size_t b = begin; b < end; ++b) {
      BlockCtx ctx(b, cfg.block_dim, cfg.grid_dim, &spec_, &mem_, stats,
                   tracker, warp, stride_, sanitizer_.get(), defer);
      if (sanitizer_) {
        sanitizer_->BeginBlock(b);
      }
      kernel(ctx);
      if (sanitizer_) {
        sanitizer_->EndBlock(b, ctx.phases_run_, ctx.shared_used_,
                             ctx.arena_.size());
      }
      const size_t used = ctx.warp_counter_ - warp;
      if (b == 0) {
        warps_per_block = used;
      } else if (cfg.block_parallel_safe && used != warps_per_block) {
        return b;
      }
      warp = ctx.warp_counter_;
    }
    return cfg.grid_dim;
  };

  // Chunk 0 follows block 0 and probes L1/L2 directly; every later chunk
  // buffers its line transactions (the only order-dependent metering) and
  // keeps its counters in a private shard.
  std::vector<WarpTracker> trackers(n_chunks,
                                    WarpTracker(mem_.line_shift()));
  std::vector<MeterBuffer> shards(n_chunks);  // shards[0] stays unused
  std::vector<size_t> first_bad(n_chunks, cfg.grid_dim);
  if (cfg.grid_dim > 0) {
    run_blocks(0, 1, &trackers[0], nullptr);
    ParallelFor(n_chunks > 1 ? ExecMode::kParallel : ExecMode::kSerial,
                n_chunks, [&](size_t c) {
                  const size_t begin = std::max<size_t>(1, c * chunk);
                  const size_t end = std::min(cfg.grid_dim, (c + 1) * chunk);
                  if (begin < end) {
                    first_bad[c] = run_blocks(begin, end, &trackers[c],
                                              c == 0 ? nullptr : &shards[c]);
                  }
                });
  }
  for (size_t bad : first_bad) {
    if (bad != cfg.grid_dim) {
      throw std::logic_error(
          "gpusim: kernel '" + cfg.name +
          "' is block_parallel_safe but block " + std::to_string(bad) +
          " ran a different number of warps than block 0 (" +
          std::to_string(warps_per_block) +
          "); every block must run the same for_each_lane phases");
    }
  }
  // Deterministic merge: replay the buffered transactions through L1/L2 in
  // chunk order, which is block order — the exact probe sequence of a
  // one-chunk launch — then fold each shard's order-independent sums (and
  // one max).
  for (size_t c = 1; c < n_chunks; ++c) {
    for (uint64_t entry : shards[c].line_entries) {
      const uint64_t line = entry >> 1;
      mem_.ProbeLines(&line, 1, /*write=*/(entry & 1) != 0, &raw);
    }
    raw.Accumulate(shards[c].stats);
  }

  // Scale sampled counters back to full-population estimates.
  if (stride_ > 1) {
    uint64_t s = static_cast<uint64_t>(stride_);
    raw.fp32_flops *= s;
    raw.fp64_flops *= s;
    raw.read_transactions *= s;
    raw.write_transactions *= s;
    raw.dram_read_bytes *= s;
    raw.dram_write_bytes *= s;
    raw.l2_read_hit_bytes *= s;
    raw.l2_write_hit_bytes *= s;
    raw.l1_read_hit_bytes *= s;
    raw.l1_write_hit_bytes *= s;
    raw.requested_read_bytes *= s;
    raw.requested_write_bytes *= s;
    raw.shared_bytes *= s;
    raw.atomic_ops *= s;
    raw.atomic_serialized *= s;
    raw.lane_ops_sum *= s;
    raw.warp_ops_slots *= s;
  }

  if (sanitizer_) {
    raw.sanitizer_hazards = sanitizer_->EndLaunch();
  }

  ApplyTimingModel(spec_, &raw);
  raw.sim_start_ms = kernel_ms_;
  kernel_ms_ += raw.total_ms;
  history_.push_back(raw);
  return raw;
}

KernelStats Device::AddModeledKernel(const std::string& name,
                                     uint64_t read_bytes,
                                     uint64_t write_bytes,
                                     uint64_t fp32_flops) {
  KernelStats st;
  st.name = name;
  st.meter_stride = 1;
  st.fp32_flops = fp32_flops;
  uint64_t line = static_cast<uint64_t>(spec_.l2_line_bytes);
  st.read_transactions = (read_bytes + line - 1) / line;
  st.write_transactions = (write_bytes + line - 1) / line;
  // Streaming working sets exceed the caches: charge everything to DRAM.
  st.dram_read_bytes = read_bytes;
  st.dram_write_bytes = write_bytes;
  st.requested_read_bytes = read_bytes;
  st.requested_write_bytes = write_bytes;
  st.lane_ops_sum = 1;
  st.warp_ops_slots = 1;  // coalesced: no divergence
  ApplyTimingModel(spec_, &st);
  st.sim_start_ms = kernel_ms_;
  kernel_ms_ += st.total_ms;
  history_.push_back(st);
  return st;
}

void KernelStats::Accumulate(const KernelStats& o) {
  fp32_flops += o.fp32_flops;
  fp64_flops += o.fp64_flops;
  read_transactions += o.read_transactions;
  write_transactions += o.write_transactions;
  dram_read_bytes += o.dram_read_bytes;
  dram_write_bytes += o.dram_write_bytes;
  l2_read_hit_bytes += o.l2_read_hit_bytes;
  l2_write_hit_bytes += o.l2_write_hit_bytes;
  l1_read_hit_bytes += o.l1_read_hit_bytes;
  l1_write_hit_bytes += o.l1_write_hit_bytes;
  requested_read_bytes += o.requested_read_bytes;
  requested_write_bytes += o.requested_write_bytes;
  shared_bytes += o.shared_bytes;
  atomic_ops += o.atomic_ops;
  atomic_serialized += o.atomic_serialized;
  lane_ops_sum += o.lane_ops_sum;
  warp_ops_slots += o.warp_ops_slots;
  max_lane_mem_ops = std::max(max_lane_mem_ops, o.max_lane_mem_ops);
  sanitizer_hazards += o.sanitizer_hazards;
  total_threads += o.total_threads;
  compute_ms += o.compute_ms;
  memory_ms += o.memory_ms;
  lsu_ms += o.lsu_ms;
  latency_ms += o.latency_ms;
  atomic_ms += o.atomic_ms;
  launch_ms += o.launch_ms;
  total_ms += o.total_ms;
}

}  // namespace biosim::gpusim
