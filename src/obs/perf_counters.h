// Hardware performance-counter sampling for the scheduler's stages.
//
// A PerfSession owns one perf_event_open group — cycles (leader),
// instructions, LLC misses, branch misses, plus the task-clock software
// event — opened for the calling (scheduler) thread and read atomically as
// a group at stage boundaries. The session only opens and reads the group:
// STAGE_SCOPE (obs/stage_scope.h) adds the delta between its open and close
// reads to the stage's OpProfile entry, beside the stage's wall time, so
// the run report can state what the hardware actually did per stage.
//
// Design constraints, in order (same contract as obs/trace.h):
//
//   1. Zero overhead when off. With no session installed a stage makes one
//      relaxed atomic load and a branch on a nullptr — no syscall, no read.
//   2. Graceful degradation. perf_event_open is Linux-only and gated by
//      /proc/sys/kernel/perf_event_paranoid (and seccomp in many
//      containers). Whenever the group cannot be opened — wrong OS, ENOSYS,
//      EACCES/EPERM, missing PMU events — the session stays alive and
//      reports `available: false` with a reason; reads return zero deltas
//      and nothing ever crashes. BIOSIM_PERF=off forces this null backend
//      (used by tests and for A/B-ing the sampling overhead itself).
//   3. Honest numbers. Group reads carry time_enabled/time_running so
//      multiplexed counters are visible as such (scaled values are
//      reported alongside the raw running fraction, never silently).
//
// Scope of measurement: the group counts the thread that constructed the
// session (plus nothing else), which is the scheduler thread. Under
// ExecMode::kParallel that thread is one OpenMP worker among N doing ~1/N
// of the work, so per-stage counters are a per-worker sample, not a machine
// total; serial runs are covered exactly. docs/observability.md discusses
// reading both.
#ifndef BIOSIM_OBS_PERF_COUNTERS_H_
#define BIOSIM_OBS_PERF_COUNTERS_H_

#include <atomic>
#include <string>

#include "core/profiler.h"
#include "obs/json.h"

namespace biosim::obs {

/// Events an available group counts beyond cycles and instructions (some
/// PMUs lack the miss counters).
struct PerfEvents {
  bool llc_misses = false;
  bool branch_misses = false;
  bool task_clock = false;
};

/// The per-stage counter table of the report's "perf_counters" section: one
/// row per `profile` entry that carries counter samples, in profile order
/// (the order the stages first opened), with the raw deltas of `events` and
/// the derived rates (ipc, effective GHz, running fraction).
json::Value StageCountersJson(const OpProfile& profile,
                              const PerfEvents& events);

/// The scheduler thread's counter group, installed like a TraceSession.
/// Not thread-safe by design: only the scheduler thread reads (the group
/// counts only that thread, so cross-thread reads would be meaningless).
class PerfSession {
 public:
  /// Opens the counter group for the calling thread. On any failure the
  /// session is still fully usable but available() is false.
  PerfSession();
  ~PerfSession();

  PerfSession(const PerfSession&) = delete;
  PerfSession& operator=(const PerfSession&) = delete;

  static PerfSession* current() {
    return current_.load(std::memory_order_relaxed);
  }
  static void SetCurrent(PerfSession* session) {
    current_.store(session, std::memory_order_release);
  }

  /// True when the hardware group opened; false on non-Linux builds, under
  /// restrictive perf_event_paranoid, or with BIOSIM_PERF=off.
  bool available() const { return available_; }
  /// Human-readable cause when !available() ("perf_event_open: EACCES
  /// (perf_event_paranoid?)", "disabled by BIOSIM_PERF=off", ...).
  const std::string& unavailable_reason() const { return reason_; }
  const PerfEvents& events() const { return events_; }

  /// Cumulative group read since session construction; zeros when
  /// unavailable.
  CounterSample Read() const;

  /// The report-v2 "perf_counters" section: availability (with the reason
  /// when unavailable), the events that opened, and StageCountersJson of
  /// `profile` as "ops".
  json::Value ToJson(const OpProfile& profile) const;

 private:
  static std::atomic<PerfSession*> current_;

  // Leader fd plus member fds, in CounterSample field order; -1 = not open.
  // Opaque ints so the header stays OS-neutral.
  int fds_[5] = {-1, -1, -1, -1, -1};
  bool available_ = false;
  PerfEvents events_;
  std::string reason_;
};

}  // namespace biosim::obs

#endif  // BIOSIM_OBS_PERF_COUNTERS_H_
