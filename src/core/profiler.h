// Per-operation wall-clock profile of the simulation loop.
//
// This is what regenerates the paper's Fig. 3 (runtime profile of the cell
// division benchmark): each scheduler operation accumulates its time here
// and ToString() renders the percentage breakdown. Every entry keeps a full
// latency histogram (core/histogram.h), so min/max/p95 per operation come
// for free; the observability layer (src/obs/metrics.h) absorbs these
// entries into the unified metrics registry.
//
// Stages nest: an entry first recorded while another stage is open (a
// ScopedStage, which obs/stage_scope.h's STAGE_SCOPE opens) is a sub-stage
// of it, e.g. the shard runtime's "partition" inside "neighborhood update"
// or the GPU backend's simulated "gpu ... (sim)" rows inside "mechanical
// forces". The parent's time already covers its sub-stages, so the TOTAL
// and the share column count top-level entries only.
#ifndef BIOSIM_CORE_PROFILER_H_
#define BIOSIM_CORE_PROFILER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "core/histogram.h"
#include "core/timer.h"

namespace biosim {

class OpProfile {
 public:
  struct Entry {
    std::string name;
    Histogram hist;
    /// First recorded while another stage was open: a sub-stage, whose
    /// time its parent already counts.
    bool nested = false;

    double total_ms() const { return hist.sum(); }
    uint64_t calls() const { return hist.count(); }
  };

  /// Times one stage into the entry `name` of `profile`; entries first
  /// recorded while it is open are nested in it. A null profile records
  /// nothing. Stages open and close on the scheduler thread only, which is
  /// the one thread that touches the depth counter.
  class ScopedStage {
   public:
    ScopedStage(OpProfile* profile, const std::string& name)
        : profile_(profile),
          hist_(profile != nullptr ? profile->Hist(name) : nullptr) {
      if (profile_ != nullptr) {
        ++profile_->open_stages_;
      }
    }
    ~ScopedStage() {
      if (profile_ != nullptr) {
        hist_->Add(timer_.ElapsedMs());
        --profile_->open_stages_;
      }
    }

    ScopedStage(const ScopedStage&) = delete;
    ScopedStage& operator=(const ScopedStage&) = delete;

   private:
    OpProfile* profile_;
    Histogram* hist_;
    Timer timer_;
  };

  /// Accumulate `ms` under `name` (entries keep first-seen order; nested
  /// when a stage is open). O(1) amortized: a hash index sits alongside the
  /// first-seen-order storage.
  void Add(const std::string& name, double ms) { Hist(name)->Add(ms); }

  /// The per-sample histogram sink for `name`, created on first use (nested
  /// when a stage is open). The pointer stays valid for the profile's
  /// lifetime (entries live in a deque).
  Histogram* Hist(const std::string& name) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, entries_.size()).first;
      entries_.push_back(Entry{name, {}, open_stages_ > 0});
    }
    return &entries_[it->second].hist;
  }

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
  // this map, so hash order cannot leak into any artifact.
  std::unordered_map<std::string, size_t> index_;
  // ScopedStages currently open (scheduler thread only).
  int open_stages_ = 0;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_PROFILER_H_
