// Per-operation wall-clock profile of the simulation loop.
//
// This is what regenerates the paper's Fig. 3 (runtime profile of the cell
// division benchmark): each scheduler operation accumulates its time here
// and ToString() renders the percentage breakdown. Every entry keeps a full
// latency histogram (core/histogram.h), so min/max/p95 per operation come
// for free; the observability layer (src/obs/metrics.h) absorbs these
// entries into the unified metrics registry.
//
// Stages nest: an entry first recorded while another stage is open (see
// OpenStage; obs/stage_scope.h's STAGE_SCOPE opens them) is a sub-stage of
// it, e.g. the shard runtime's "partition" inside "neighborhood update" or
// the GPU backend's simulated "gpu ... (sim)" rows inside "mechanical
// forces". The parent's time already covers its sub-stages, so the TOTAL
// and the share column count top-level entries only. An entry also sums
// its stage's hardware-counter deltas (obs/perf_counters.h).
#ifndef BIOSIM_CORE_PROFILER_H_
#define BIOSIM_CORE_PROFILER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/histogram.h"

namespace biosim {

/// One hardware counter-group read (cumulative since enable) or a
/// difference of two reads. All zeros when no counters are available.
struct CounterSample {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
  uint64_t task_clock_ns = 0;
  /// Group scheduling times, for multiplexing detection: running < enabled
  /// means the PMU was oversubscribed and the raw counts cover only the
  /// running fraction.
  uint64_t time_enabled_ns = 0;
  uint64_t time_running_ns = 0;

  CounterSample operator-(const CounterSample& o) const {
    auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
    CounterSample d;
    d.cycles = sub(cycles, o.cycles);
    d.instructions = sub(instructions, o.instructions);
    d.llc_misses = sub(llc_misses, o.llc_misses);
    d.branch_misses = sub(branch_misses, o.branch_misses);
    d.task_clock_ns = sub(task_clock_ns, o.task_clock_ns);
    d.time_enabled_ns = sub(time_enabled_ns, o.time_enabled_ns);
    d.time_running_ns = sub(time_running_ns, o.time_running_ns);
    return d;
  }

  void Accumulate(const CounterSample& d) {
    cycles += d.cycles;
    instructions += d.instructions;
    llc_misses += d.llc_misses;
    branch_misses += d.branch_misses;
    task_clock_ns += d.task_clock_ns;
    time_enabled_ns += d.time_enabled_ns;
    time_running_ns += d.time_running_ns;
  }

  double Ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  /// Mean clock while the thread was on-CPU, in GHz.
  double EffectiveGhz() const {
    return task_clock_ns > 0 ? static_cast<double>(cycles) /
                                   static_cast<double>(task_clock_ns)
                             : 0.0;
  }
  /// Fraction of the enabled time the group was actually counting (1.0 =
  /// no multiplexing).
  double RunningFraction() const {
    return time_enabled_ns > 0 ? static_cast<double>(time_running_ns) /
                                     static_cast<double>(time_enabled_ns)
                               : 1.0;
  }
};

class OpProfile {
 public:
  struct Entry {
    std::string name;
    Histogram hist;
    /// First recorded while another stage was open: a sub-stage, whose
    /// time its parent already counts.
    bool nested = false;
    /// Counter deltas summed over the samples that carried one.
    CounterSample counters;
    uint64_t counter_samples = 0;

    double total_ms() const { return hist.sum(); }
    uint64_t calls() const { return hist.count(); }
    void AddCounters(const CounterSample& delta) {
      counters.Accumulate(delta);
      ++counter_samples;
    }
  };

  /// Accumulate `ms` under `name` (entries keep first-seen order; nested
  /// when a stage is open). O(1) amortized: a hash index sits alongside the
  /// first-seen-order storage.
  void Add(std::string_view name, double ms) { Get(name).hist.Add(ms); }

  /// The entry `name`, created on first use (nested when a stage is open).
  /// Entries live in a deque, so the reference stays valid.
  Entry& Get(std::string_view name) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(std::string(name), entries_.size()).first;
      entries_.push_back(Entry{std::string(name), {}, open_stages_ > 0, {}, 0});
    }
    return entries_[it->second];
  }

  /// Brackets a stage: entries first recorded between OpenStage and its
  /// CloseStage are nested in it. Stages open and close on the scheduler
  /// thread only, the one thread that touches the depth counter.
  Entry& OpenStage(std::string_view name) {
    Entry& e = Get(name);
    ++open_stages_;
    return e;
  }
  void CloseStage() { --open_stages_; }

  double TotalMs(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0.0 : entries_[it->second].hist.sum();
  }

  /// Sum over top-level entries: a nested entry's time is already in its
  /// parent's.
  double GrandTotalMs() const {
    double t = 0.0;
    for (const auto& e : entries_) {
      if (!e.nested) {
        t += e.total_ms();
      }
    }
    return t;
  }

  const std::deque<Entry>& entries() const { return entries_; }

  const Entry* Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  void Reset() {
    entries_.clear();
    index_.clear();
  }

  /// Render a Fig. 3-style breakdown table (now with per-step percentiles).
  /// Nested rows are indented; every share is of the TOTAL, so the
  /// top-level shares sum to 100%.
  std::string ToString() const {
    double total = GrandTotalMs();
    std::string out;
    out +=
        "operation                     time_ms      share     p50_ms     "
        "p95_ms     max_ms\n";
    char line[160];
    for (const auto& e : entries_) {
      double pct = total > 0.0 ? 100.0 * e.total_ms() / total : 0.0;
      const std::string label = e.nested ? "  " + e.name : e.name;
      snprintf(line, sizeof(line),
               "%-28s %9.2f    %6.2f%% %10.3f %10.3f %10.3f\n",
               label.c_str(), e.total_ms(), pct, e.hist.Percentile(0.5),
               e.hist.Percentile(0.95), e.hist.max());
      out += line;
    }
    snprintf(line, sizeof(line), "%-28s %9.2f    100.00%%\n", "TOTAL", total);
    out += line;
    return out;
  }

 private:
  std::deque<Entry> entries_;  // deque: stable Entry/Histogram addresses
  // Lookup index only — reports iterate entries_ (first-seen order), never
  // this map, so hash order cannot leak into any artifact. Transparent, so
  // a string_view lookup builds no string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, size_t, NameHash, std::equal_to<>> index_;
  // Stages currently open (scheduler thread only).
  int open_stages_ = 0;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_PROFILER_H_
