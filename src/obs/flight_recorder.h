// Crash flight recorder: a fixed-size ring of the last N step summaries,
// dumped as JSON when the process dies abnormally (SIGSEGV/SIGABRT/SIGBUS)
// or when a determinism self-check diverges — so a failed CI job or a
// long-run crash leaves a postmortem artifact instead of nothing.
//
// Async-signal-safety is the design driver: each RecordStep call formats
// its summary into a preallocated fixed-width slot *at record time* (snprintf
// on the hot-but-safe path), so the signal handler only has to open(2) the
// configured path and write(2) preformatted bytes plus constant framing.
// No allocation, no locks, no stdio in the handler. The handler then
// restores the default disposition and re-raises, preserving the crash's
// exit status and core dump.
//
// A recorder records nothing and costs nothing unless the runner wires it
// (biosim_run --flight-recorder FILE); one recorder at a time may own the
// process-wide signal handlers.
//
// Dump shape (flight_recorder_version 1):
//
//   {
//     "flight_recorder_version": 1,
//     "reason": "signal" | "determinism-divergence" | "manual",
//     "signal": 11,                  // signal dumps only
//     "recorded_steps": 123,         // total RecordStep calls
//     "steps": [ {step summary}, ... oldest to newest, at most N ],
//     "context": { ... }             // optional, non-signal dumps only
//   }
//
// Each step summary: {"step": S, "state_hash": "%016x", "agents": A,
// "substances": D, "wall_ms": W, "ops": {name: ms...}, "counters":
// {"cycles": C, "instructions": I, "llc_misses": L, "branch_misses": B}}
// (the counters object appears only when hardware counters were available).
#ifndef BIOSIM_OBS_FLIGHT_RECORDER_H_
#define BIOSIM_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "obs/json.h"

namespace biosim::obs {

class FlightRecorder {
 public:
  /// Bytes per preformatted ring slot; summaries that would overflow are
  /// truncated at the last complete field (the line stays valid JSON).
  static constexpr size_t kSlotBytes = 1024;

  struct StepRecord {
    uint64_t step = 0;
    uint64_t state_hash = 0;
    uint64_t agents = 0;
    uint64_t substances = 0;
    double wall_ms = 0.0;
    /// Per-op wall-clock deltas for this step, pipeline order.
    std::vector<std::pair<const char*, double>> op_ms;
    /// Per-step hardware-counter delta; recorded only when set.
    bool has_counters = false;
    CounterSample counters;
    /// Sharded-pipeline summary (docs/sharding.md); recorded only when
    /// shards > 0: shard count, halo ghosts shipped this step, and agents
    /// that changed owner.
    uint64_t shards = 0;
    uint64_t shard_ghosts = 0;
    uint64_t shard_migrations = 0;
  };

  /// `capacity` is N, the number of most-recent steps retained.
  explicit FlightRecorder(size_t capacity = 64);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  size_t capacity() const { return slots_.size(); }
  /// Total RecordStep calls (>= held steps once the ring wraps).
  uint64_t recorded_steps() const { return recorded_; }

  /// Preformat `r` into the next ring slot (overwrites the oldest).
  void RecordStep(const StepRecord& r);

  /// Install process-wide SIGSEGV/SIGABRT/SIGBUS handlers that dump this
  /// recorder to `path` and re-raise. Only one recorder may hold the
  /// handlers; a second installer displaces the first. Returns false when
  /// signal handling is unsupported on the platform.
  bool InstallSignalHandlers(const std::string& path);
  /// Restore the previous dispositions (no-op if not installed).
  void UninstallSignalHandlers();

  /// The recorder currently owning the signal handlers, or nullptr.
  static FlightRecorder* current();

  /// Dump destination configured by InstallSignalHandlers (handler use).
  const char* signal_path() const { return signal_path_; }

  /// Normal-path dump (divergence reports, tests): same document as the
  /// signal path plus an optional "context" object. Returns false on I/O
  /// failure.
  bool Dump(const std::string& path, const char* reason,
            const json::Value* context = nullptr) const;

  /// Async-signal-safe core: write the full document to an open fd using
  /// only write(2). `signo` < 0 omits the "signal" field. Exposed for the
  /// handler and for tests; returns false if any write failed.
  bool WriteToFd(int fd, const char* reason, int signo) const;

 private:
  struct Slot {
    char buf[kSlotBytes];
    size_t len = 0;
  };

  std::vector<Slot> slots_;
  size_t head_ = 0;       // next write index
  uint64_t recorded_ = 0;
  char signal_path_[512] = {0};
  bool handlers_installed_ = false;
};

}  // namespace biosim::obs

#endif  // BIOSIM_OBS_FLIGHT_RECORDER_H_
