#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "core/thread_pool.h"
#include "diffusion/diffusion_grid.h"
#include "gpusim/device.h"
#include "spatial/uniform_grid.h"
#include "gpusim/profiler.h"
#include "obs/perf_counters.h"

namespace biosim::obs {

MetricsRegistry::Metric* MetricsRegistry::GetOrCreate(const std::string& name,
                                                      Kind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    it = index_.emplace(name, metrics_.size()).first;
    metrics_.push_back(Metric{name, kind, {}, {}, {}});
  }
  Metric* m = &metrics_[it->second];
  assert(m->kind == kind && "metric re-registered with a different kind");
  return m;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return &GetOrCreate(name, Kind::kCounter)->counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return &GetOrCreate(name, Kind::kGauge)->gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return &GetOrCreate(name, Kind::kHistogram)->hist;
}

void MetricsRegistry::Merge(const MetricsRegistry& o) {
  for (const Metric& m : o.metrics_) {
    Metric* mine = GetOrCreate(m.name, m.kind);
    switch (m.kind) {
      case Kind::kCounter:
        mine->counter.Add(m.counter.value());
        break;
      case Kind::kGauge:
        if (m.gauge.ever_set()) {
          mine->gauge.Set(m.gauge.value());
        }
        break;
      case Kind::kHistogram:
        mine->hist.Merge(m.hist);
        break;
    }
  }
}

void MetricsRegistry::Reset() {
  metrics_.clear();
  index_.clear();
}

json::Value MetricsRegistry::ToJson() const {
  json::Value counters = json::Value::MakeObject();
  json::Value gauges = json::Value::MakeObject();
  json::Value hists = json::Value::MakeObject();
  // metrics_ is first-registration-ordered, which depends on which collector
  // ran first; emit name-sorted so report and JSONL artifacts are
  // byte-stable across runs and refactors of collection order.
  std::vector<const Metric*> sorted;
  sorted.reserve(metrics_.size());
  for (const Metric& m : metrics_) {
    sorted.push_back(&m);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Metric* a, const Metric* b) { return a->name < b->name; });
  for (const Metric* mp : sorted) {
    const Metric& m = *mp;
    switch (m.kind) {
      case Kind::kCounter:
        counters.Set(m.name, m.counter.value());
        break;
      case Kind::kGauge:
        gauges.Set(m.name, m.gauge.value());
        break;
      case Kind::kHistogram: {
        json::Value h = json::Value::MakeObject();
        h.Set("count", m.hist.count());
        h.Set("sum", m.hist.sum());
        h.Set("min", m.hist.min());
        h.Set("max", m.hist.max());
        h.Set("mean", m.hist.mean());
        h.Set("p50", m.hist.Percentile(0.5));
        h.Set("p95", m.hist.Percentile(0.95));
        hists.Set(m.name, std::move(h));
        break;
      }
    }
  }
  json::Value out = json::Value::MakeObject();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(hists));
  return out;
}

MetricsJsonlWriter::MetricsJsonlWriter(const std::string& path)
    : out_(path) {}

bool MetricsJsonlWriter::WriteSnapshot(uint64_t step,
                                       const MetricsRegistry& registry) {
  if (!out_.good()) {
    return false;
  }
  json::Value line = json::Value::MakeObject();
  line.Set("step", step);
  json::Value dump = registry.ToJson();
  for (auto& m : dump.members()) {
    line.Set(m.first, m.second);
  }
  out_ << line.Dump(0) << "\n";
  out_.flush();
  return out_.good();
}

// --- collectors -------------------------------------------------------------

void CollectOpProfile(const OpProfile& profile, MetricsRegistry* reg) {
  for (const OpProfile::Entry& e : profile.entries()) {
    reg->GetHistogram("op/" + e.name + "/ms")->Merge(e.hist);
    reg->GetCounter("op/" + e.name + "/calls")->Set(e.calls());
  }
}

void CollectDevice(const gpusim::Device& dev, MetricsRegistry* reg) {
  gpusim::ProfileReport report(dev);
  for (const gpusim::AggregatedKernel& k : report.kernels()) {
    const std::string p = "gpusim/kernel/" + k.name + "/";
    reg->GetCounter(p + "launches")->Set(k.launches);
    reg->GetGauge(p + "time_ms")->Set(k.total_ms);
    reg->GetGauge(p + "latency_ms")->Set(k.latency_ms);
    reg->GetCounter(p + "flops")->Set(k.TotalFlops());
    reg->GetCounter(p + "dram_bytes")->Set(k.DramBytes());
    reg->GetCounter(p + "l2_hit_bytes")->Set(k.L2HitBytes());
    reg->GetCounter(p + "l1_hit_bytes")->Set(k.L1HitBytes());
    reg->GetCounter(p + "read_transactions")->Set(k.read_transactions);
    reg->GetCounter(p + "write_transactions")->Set(k.write_transactions);
    reg->GetCounter(p + "atomic_ops")->Set(k.atomic_ops);
    reg->GetCounter(p + "atomic_serialized")->Set(k.atomic_serialized);
    reg->GetCounter(p + "shared_bytes")->Set(k.shared_bytes);
    reg->GetGauge(p + "simd_efficiency")->Set(k.SimdEfficiency());
    reg->GetGauge(p + "l2_read_hit_fraction")->Set(k.L2ReadHitFraction());
    reg->GetGauge(p + "arithmetic_intensity")->Set(k.ArithmeticIntensity());
    reg->GetGauge(p + "achieved_gflops")->Set(k.AchievedGflops());
  }
  const gpusim::TransferStats& t = dev.transfers();
  reg->GetCounter("gpusim/transfers/h2d_bytes")->Set(t.h2d_bytes);
  reg->GetCounter("gpusim/transfers/d2h_bytes")->Set(t.d2h_bytes);
  reg->GetCounter("gpusim/transfers/h2d_count")->Set(t.h2d_count);
  reg->GetCounter("gpusim/transfers/d2h_count")->Set(t.d2h_count);
  reg->GetGauge("gpusim/transfers/h2d_ms")->Set(t.h2d_ms);
  reg->GetGauge("gpusim/transfers/d2h_ms")->Set(t.d2h_ms);
  reg->GetGauge("gpusim/device/kernel_ms")->Set(dev.KernelMs());
  reg->GetGauge("gpusim/device/elapsed_ms")->Set(dev.ElapsedMs());
  reg->GetCounter("gpusim/device/launches")->Set(dev.history().size());
  reg->GetGauge("gpusim/device/meter_stride")
      ->Set(static_cast<double>(dev.meter_stride()));
}

void CollectDiffusionGrid(const DiffusionGrid& grid, MetricsRegistry* reg) {
  const std::string p = "diffusion/" + grid.substance_name() + "/";
  reg->GetCounter(p + "voxels")->Set(grid.num_voxels());
  reg->GetGauge(p + "total_amount")->Set(grid.TotalAmount());
  reg->GetGauge(p + "max_concentration")->Set(grid.MaxConcentration());
  reg->GetCounter(p + "dropped_deposits")->Set(grid.dropped_deposits());
}

void CollectUniformGrid(const UniformGridEnvironment& env,
                        MetricsRegistry* reg) {
  reg->GetCounter("grid/full_rebuilds")->Set(env.rebuilds());
  reg->GetCounter("grid/boxes")->Set(env.total_boxes());
  reg->GetCounter("grid/occupied_boxes")->Set(env.occupied_boxes());
}

void CollectRuntime(MetricsRegistry* reg, int worker_threads) {
  unsigned hw = std::thread::hardware_concurrency();
  reg->GetGauge("runtime/hardware_threads")
      ->Set(static_cast<double>(hw > 0 ? static_cast<int>(hw)
                                       : HardwareThreads()));
  reg->GetGauge("runtime/worker_threads")
      ->Set(static_cast<double>(worker_threads > 0 ? worker_threads
                                                   : HardwareThreads()));
#ifdef _OPENMP
  reg->GetGauge("runtime/openmp")->Set(1.0);
#else
  reg->GetGauge("runtime/openmp")->Set(0.0);
#endif
}

void CollectShards(const std::vector<ShardObsStats>& shards,
                   uint64_t migrations, MetricsRegistry* reg) {
  if (shards.empty()) {
    return;
  }
  uint64_t total_owned = 0;
  uint64_t max_owned = 0;
  for (size_t k = 0; k < shards.size(); ++k) {
    const ShardObsStats& s = shards[k];
    const std::string prefix = "shard/" + std::to_string(k) + "/";
    reg->GetCounter(prefix + "owned_agents")->Set(s.owned_agents);
    reg->GetCounter(prefix + "ghosts_shipped")->Set(s.ghosts_shipped);
    reg->GetCounter(prefix + "planes")
        ->Set(static_cast<uint64_t>(s.end_plane - s.first_plane));
    total_owned += s.owned_agents;
    max_owned = std::max(max_owned, s.owned_agents);
  }
  reg->GetCounter("shard/count")->Set(shards.size());
  reg->GetCounter("shard/migrations")->Set(migrations);
  // Imbalance relative to the perfectly balanced share: the slowest shard
  // bounds the step, so max/share is the wall-clock overhead factor the
  // partitioner owes (kAdaptive exists to pull this toward 1.0).
  const double share =
      total_owned > 0
          ? static_cast<double>(total_owned) / static_cast<double>(shards.size())
          : 0.0;
  double mean_dev = 0.0;
  if (share > 0.0) {
    for (const ShardObsStats& s : shards) {
      mean_dev += std::abs(static_cast<double>(s.owned_agents) - share);
    }
    mean_dev /= share * static_cast<double>(shards.size());
  }
  reg->GetGauge("shard/load_imbalance_max")
      ->Set(share > 0.0 ? static_cast<double>(max_owned) / share : 1.0);
  // Mean relative deviation from the balanced share (0 = perfectly even).
  reg->GetGauge("shard/load_imbalance_mean")->Set(mean_dev);
}

void CollectPerfSession(const PerfSession* session, const OpProfile& profile,
                        MetricsRegistry* reg) {
  if (session == nullptr) {
    return;
  }
  reg->GetGauge("perf/available")->Set(session->available() ? 1.0 : 0.0);
  if (session->available()) {
    CollectStageCounters(profile, session->events(), reg);
  }
}

void CollectStageCounters(const OpProfile& profile, const PerfEvents& events,
                          MetricsRegistry* reg) {
  // Read back from the "ops" table, so the gauges and the report agree.
  const json::Value ops = StageCountersJson(profile, events);
  for (const auto& [stage, row] : ops.members()) {
    for (const char* key :
         {"cycles", "instructions", "llc_misses", "branch_misses", "ipc"}) {
      if (const json::Value* v = row.Find(key)) {
        reg->GetGauge("perf/" + stage + "/" + key)->Set(v->AsDouble());
      }
    }
  }
}

}  // namespace biosim::obs
