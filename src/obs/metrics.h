// Unified metrics registry: named counters, gauges and histograms behind
// one interface, with JSON dumps and per-step JSON-lines snapshots.
//
// This absorbs the quantities that used to live in disconnected ad-hoc
// structs — OpProfile operation times, gpusim KernelStats aggregates and
// memory-model transaction counters, transfer accounting, diffusion-grid
// state, thread-pool configuration — so every consumer (biosim_run --json,
// the figure benches, tests) reads the same names from the same place.
//
// Kinds and merge semantics (exercised by tests/obs/metrics_test.cc):
//   counter    monotonic uint64; Merge adds.
//   gauge      last-written double; Merge overwrites with the source's
//              value iff the source ever set it.
//   histogram  full distribution (core/histogram.h: count/sum/min/max,
//              p50/p95); Merge combines distributions.
//
// Metric names are slash-scoped by convention: "op/mechanical forces/ms",
// "gpusim/kernel/mech_v2/dram_bytes", "diffusion/substance/total_amount".
#ifndef BIOSIM_OBS_METRICS_H_
#define BIOSIM_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/histogram.h"
#include "obs/json.h"

namespace biosim {
class OpProfile;
class DiffusionGrid;
class UniformGridEnvironment;
}  // namespace biosim

namespace biosim::gpusim {
class Device;
}  // namespace biosim::gpusim

namespace biosim::obs {

class PerfSession;
struct PerfEvents;

class Counter {
 public:
  void Add(uint64_t n = 1) { v_ += n; }
  /// Overwrite with an externally maintained cumulative value (how the
  /// collectors absorb counters that live elsewhere).
  void Set(uint64_t v) { v_ = v; }
  uint64_t value() const { return v_; }

 private:
  uint64_t v_ = 0;
};

class Gauge {
 public:
  void Set(double v) {
    v_ = v;
    set_ = true;
  }
  double value() const { return v_; }
  bool ever_set() const { return set_; }

 private:
  double v_ = 0.0;
  bool set_ = false;
};

class MetricsRegistry {
 public:
  /// Named instrument access, created on first use. Pointers stay valid for
  /// the registry's lifetime. Re-requesting a name with a different kind is
  /// a programming error (asserted).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Combine `o` into this registry (see the kind table above). Metrics
  /// absent here are created.
  void Merge(const MetricsRegistry& o);

  size_t size() const { return metrics_.size(); }
  void Reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, mean, p50, p95}}} — name-sorted within each section so
  /// the serialized form is byte-stable regardless of registration order.
  json::Value ToJson() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Metric {
    std::string name;
    Kind kind;
    Counter counter;
    Gauge gauge;
    Histogram hist;
  };

  Metric* GetOrCreate(const std::string& name, Kind kind);

  std::deque<Metric> metrics_;  // first-seen order; stable addresses
  std::unordered_map<std::string, size_t> index_;
};

/// Append one JSON object per snapshot to a file — the per-step time-series
/// emission mode (biosim_run --metrics=FILE --metrics-every=N).
class MetricsJsonlWriter {
 public:
  explicit MetricsJsonlWriter(const std::string& path);
  bool ok() const { return out_.good(); }
  /// One line: {"step": N, ...registry dump}.
  bool WriteSnapshot(uint64_t step, const MetricsRegistry& registry);

 private:
  std::ofstream out_;
};

// --- collectors -------------------------------------------------------------
// Each collector reads one subsystem's native accounting into the registry
// under a stable name prefix. They Set cumulative values, so re-collecting
// into a fresh registry per snapshot is idempotent.

/// Scheduler operation times: "op/<name>/ms" histograms (per-step samples)
/// plus "op/<name>/calls" counters.
void CollectOpProfile(const OpProfile& profile, MetricsRegistry* reg);

/// Simulated-GPU accounting, aggregated per kernel name:
/// "gpusim/kernel/<name>/{launches,time_ms,latency_ms,flops,dram_bytes,
/// l2_hit_bytes,read_transactions,write_transactions,atomic_ops,
/// simd_efficiency,...}"
/// plus device-wide transfer counters and the simulated clock.
void CollectDevice(const gpusim::Device& dev, MetricsRegistry* reg);

/// Diffusion grid state: "diffusion/<substance>/{voxels,total_amount,
/// max_concentration,dropped_deposits}".
void CollectDiffusionGrid(const DiffusionGrid& grid, MetricsRegistry* reg);

/// Uniform-grid counters: "grid/{full_rebuilds,boxes,occupied_boxes}" —
/// updates so far, the lattice's box count, and how many of those boxes
/// the last update's compacted CSR stores (the rest cost nothing).
void CollectUniformGrid(const UniformGridEnvironment& env,
                        MetricsRegistry* reg);

/// Host execution environment: "runtime/hardware_threads" (machine
/// concurrency), "runtime/worker_threads" (threads the run actually uses;
/// defaults to the OpenMP worker count when not passed), "runtime/openmp"
/// (0/1).
void CollectRuntime(MetricsRegistry* reg, int worker_threads = 0);

/// "perf/available" (0/1) of a non-null `session`, plus, when it is
/// available, CollectStageCounters of `profile`.
void CollectPerfSession(const PerfSession* session, const OpProfile& profile,
                        MetricsRegistry* reg);

/// Per-stage hardware-counter totals of every `profile` entry that carries
/// counter samples: "perf/<stage>/{cycles,instructions,llc_misses,
/// branch_misses,ipc}", the miss counters only when `events` has them.
void CollectStageCounters(const OpProfile& profile, const PerfEvents& events,
                          MetricsRegistry* reg);

/// One spatial shard's per-step accounting, copied out of the engine's
/// ShardRuntime by the caller (plain data: obs does not link the engine).
struct ShardObsStats {
  uint64_t owned_agents = 0;
  uint64_t ghosts_shipped = 0;
  int32_t first_plane = 0;
  int32_t end_plane = 0;
};

/// Sharded-pipeline state: per-shard "shard/<k>/{owned_agents,
/// ghosts_shipped,planes}" counters plus domain-wide "shard/count",
/// "shard/migrations" and the load-imbalance gauges
/// "shard/load_imbalance_max" / "shard/load_imbalance_mean" (per-shard
/// owned count over the perfectly balanced share; 1.0 = ideal). No-op when
/// `shards` is empty (unsharded run).
void CollectShards(const std::vector<ShardObsStats>& shards,
                   uint64_t migrations, MetricsRegistry* reg);

}  // namespace biosim::obs

#endif  // BIOSIM_OBS_METRICS_H_
