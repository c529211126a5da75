// Structured tracing: scoped spans into per-thread ring buffers, exported
// as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design constraints, in order:
//
//   1. Zero overhead when off. TRACE_SCOPE compiles to one relaxed atomic
//      load and a branch on a nullptr session — no mutex, no allocation,
//      no clock read. This is asserted by tests/obs/overhead_test.cc and
//      bench/micro/bench_micro_trace.cc.
//   2. Low overhead when on. Each thread records into its own fixed-size
//      ring buffer (registered once per thread under a mutex, then
//      lock-free); a full ring overwrites the oldest events and counts the
//      drops rather than blocking the simulation.
//   3. One track per host thread. Events carry the recording thread's
//      registration-order tid; the exporter emits thread_name metadata so
//      Perfetto labels the scheduler thread and each worker.
//
// Virtual tracks — timelines that did not run on a host thread, like the
// simulated GPU reconstructed from gpusim::Device launch history
// (obs/gpu_trace.h) — are added after the run via AddVirtualSpan and
// rendered as a separate process so their (simulated) clock is visually
// distinct from the host wall clock.
//
// Usage:
//   obs::TraceSession session;
//   obs::TraceSession::SetCurrent(&session);   // tracing on
//   { TRACE_SCOPE("mechanical_pairs"); ... }   // a span on this thread
//   obs::TraceSession::SetCurrent(nullptr);    // tracing off
//   session.WriteChromeJson("trace.json");
#ifndef BIOSIM_OBS_TRACE_H_
#define BIOSIM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"

namespace biosim::obs {

/// One completed span ("X" phase in the Chrome trace format). `name` must
/// point at storage that outlives the session — string literals, or strings
/// interned via TraceSession::Intern.
struct TraceEvent {
  const char* name;
  uint64_t start_ns;  // since session epoch
  uint64_t dur_ns;
};

class TraceSession {
 public:
  /// `events_per_thread` bounds each thread's ring buffer (and therefore
  /// memory: 24 B/event). The default holds ~2.6M spans across 10 threads.
  explicit TraceSession(size_t events_per_thread = 1 << 18);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The process-wide active session, or nullptr when tracing is off. A
  /// relaxed atomic load: this is the TRACE_SCOPE fast path.
  static TraceSession* current() {
    return current_.load(std::memory_order_relaxed);
  }
  /// Install (or, with nullptr, remove) the active session. Not meant to be
  /// toggled mid-span; call between simulation phases.
  static void SetCurrent(TraceSession* session) {
    current_.store(session, std::memory_order_release);
  }

  /// Nanoseconds from the session epoch to `t` (steady clock).
  uint64_t SinceEpochNs(std::chrono::steady_clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }
  uint64_t NowNs() const {
    return SinceEpochNs(std::chrono::steady_clock::now());
  }

  /// Record a completed span on the calling thread's track.
  void Record(const char* name, uint64_t start_ns, uint64_t dur_ns);

  /// Copy `name` into session-lifetime storage (for span names built at
  /// runtime; literals don't need it).
  const char* Intern(const std::string& name);

  /// Append a span to a named virtual track (e.g. the simulated GPU).
  /// Timestamps are microseconds on the track's own clock; `args` become
  /// the span's args object in the trace (shown in the Perfetto side
  /// panel). Not thread-safe; call after the traced run.
  void AddVirtualSpan(
      const std::string& track, const std::string& name, double start_us,
      double dur_us,
      std::vector<std::pair<std::string, std::string>> args = {});

  /// Total events dropped because a ring buffer wrapped.
  uint64_t dropped() const;
  /// Events currently held (all threads + virtual tracks).
  size_t event_count() const;

  /// Serialize as a Chrome trace-event document ({"traceEvents": [...]}).
  /// Host tracks go to pid 1 ("host"), virtual tracks to pid 2
  /// ("gpusim (virtual time)"); events within a track are sorted by start.
  std::string ToChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::vector<TraceEvent> ring;
    size_t head = 0;        // next write slot
    uint64_t recorded = 0;  // total Record calls
    std::string label;
  };

  struct VirtualEvent {
    size_t track;  // index into virtual_tracks_
    std::string name;
    double start_us;
    double dur_us;
    std::vector<std::pair<std::string, std::string>> args;
  };

  ThreadBuf* BufForThisThread();

  static std::atomic<TraceSession*> current_;

  uint64_t id_;  // process-unique; keys the thread-local buffer cache
  std::chrono::steady_clock::time_point epoch_;
  size_t capacity_;

  // Registration, interning and virtual tracks go through mu_; the ThreadBuf
  // contents themselves are single-writer by construction (each buffer is
  // only ever written by its registering thread) and read by the exporter
  // after the traced run. The BIOSIM_GUARDED_BY annotations make the lock
  // discipline a compile-time check under clang -Wthread-safety
  // (docs/static-analysis.md).
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> threads_ BIOSIM_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<std::string>> interned_ BIOSIM_GUARDED_BY(mu_);
  std::vector<std::string> virtual_tracks_ BIOSIM_GUARDED_BY(mu_);
  std::vector<VirtualEvent> virtual_events_ BIOSIM_GUARDED_BY(mu_);
};

/// RAII span: records [construction, destruction) on the current session.
/// `name` must outlive the session (string literal in practice).
class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : session_(TraceSession::current()), name_(name) {
    if (session_ != nullptr) {
      start_ = session_->NowNs();
    }
  }
  ~TraceScope() {
    if (session_ != nullptr) {
      session_->Record(name_, start_, session_->NowNs() - start_);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSession* session_;
  const char* name_;
  uint64_t start_ = 0;
};

}  // namespace biosim::obs

#define BIOSIM_TRACE_CONCAT2(a, b) a##b
#define BIOSIM_TRACE_CONCAT(a, b) BIOSIM_TRACE_CONCAT2(a, b)
/// Span covering the enclosing scope; `name` must be a string literal (or
/// otherwise outlive the session).
#define TRACE_SCOPE(name) \
  ::biosim::obs::TraceScope BIOSIM_TRACE_CONCAT(trace_scope_, __LINE__)(name)

#endif  // BIOSIM_OBS_TRACE_H_
