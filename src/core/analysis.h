// Static-analysis annotations for the concurrency contract.
//
// Two kinds of machine-checkable markers live here (docs/static-analysis.md):
//
//   1. Clang -Wthread-safety capability annotations (BIOSIM_GUARDED_BY et
//      al.) plus a minimally annotated Mutex/MutexLock pair. Under GCC (the
//      container toolchain) every attribute expands to nothing and Mutex is a
//      zero-cost veneer over std::mutex, so behavior and codegen are
//      unchanged; under Clang the lock discipline around the obs ring
//      buffers becomes a compile-time check.
//
//   2. BIOSIM_HOT_LOOP_BEGIN/END region markers consumed by biosim-lint
//      (tools/biosim_lint): inside a marked region the linter rejects
//      dynamic_cast, typeid, std::function and virtual dispatch — the
//      dispatch mechanisms the fused kernels exist to avoid. The markers
//      compile to nothing; they only scope the lint rule.
//      BIOSIM_SHARD_SCOPE_BEGIN/END work the same way for the sharded
//      pipeline's per-shard phases in core/shard_runtime.cc (rule
//      `cross-shard-write`): inside a shard scope the linter rejects direct
//      writes to domain-global state (IncreaseConcentrationBy,
//      AddAgent/RemoveAgent).
//
//   3. TsanAcquire/TsanRelease happens-before bridges for
//      -fsanitize=thread builds (BIOSIM_SANITIZE=thread). GCC's libgomp is
//      not TSan-instrumented, so the barriers that start and end a
//      parallel region are invisible to the race detector: everything the
//      issuing thread wrote before a region looks unsynchronized with the
//      pool workers, and everything a worker touched looks unsynchronized
//      with the issuing thread afterwards. The parallel primitives in
//      core/thread_pool.h re-publish both edges explicitly through these
//      calls, on two tokens so that workers of one region never synchronize
//      with each other; they compile to nothing when TSan is off.
#ifndef BIOSIM_CORE_ANALYSIS_H_
#define BIOSIM_CORE_ANALYSIS_H_

#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define BIOSIM_TS_ATTR(x) __attribute__((x))
#else
#define BIOSIM_TS_ATTR(x)  // no-op outside clang
#endif

#define BIOSIM_CAPABILITY(x) BIOSIM_TS_ATTR(capability(x))
#define BIOSIM_SCOPED_CAPABILITY BIOSIM_TS_ATTR(scoped_lockable)
#define BIOSIM_GUARDED_BY(x) BIOSIM_TS_ATTR(guarded_by(x))
#define BIOSIM_PT_GUARDED_BY(x) BIOSIM_TS_ATTR(pt_guarded_by(x))
#define BIOSIM_REQUIRES(...) BIOSIM_TS_ATTR(requires_capability(__VA_ARGS__))
#define BIOSIM_ACQUIRE(...) BIOSIM_TS_ATTR(acquire_capability(__VA_ARGS__))
#define BIOSIM_RELEASE(...) BIOSIM_TS_ATTR(release_capability(__VA_ARGS__))
#define BIOSIM_TRY_ACQUIRE(...) \
  BIOSIM_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#define BIOSIM_EXCLUDES(...) BIOSIM_TS_ATTR(locks_excluded(__VA_ARGS__))
#define BIOSIM_RETURN_CAPABILITY(x) BIOSIM_TS_ATTR(lock_returned(x))
#define BIOSIM_NO_THREAD_SAFETY_ANALYSIS \
  BIOSIM_TS_ATTR(no_thread_safety_analysis)

#if defined(__SANITIZE_THREAD__)
#define BIOSIM_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BIOSIM_TSAN_ENABLED 1
#endif
#endif

#ifdef BIOSIM_TSAN_ENABLED
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
}
#endif

namespace biosim {

/// Publish this thread's memory accesses on `token` (a release in TSan's
/// happens-before model). Pair with TsanAcquire on the observing thread.
/// No-op outside -fsanitize=thread builds.
inline void TsanRelease(void* token) {
#ifdef BIOSIM_TSAN_ENABLED
  __tsan_release(token);
#else
  static_cast<void>(token);
#endif
}

/// Observe every access published on `token` by prior TsanRelease calls.
inline void TsanAcquire(void* token) {
#ifdef BIOSIM_TSAN_ENABLED
  __tsan_acquire(token);
#else
  static_cast<void>(token);
#endif
}

/// std::mutex with the capability annotation -Wthread-safety needs to track
/// acquire/release. Same layout and cost as std::mutex; satisfies the
/// Lockable named requirements, so it drops into std::lock_guard too.
class BIOSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BIOSIM_ACQUIRE() { mu_.lock(); }
  void unlock() BIOSIM_RELEASE() { mu_.unlock(); }
  bool try_lock() BIOSIM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, annotated as a scoped capability so clang knows the
/// guarded members are accessible for the guard's lifetime.
class BIOSIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BIOSIM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() BIOSIM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace biosim

// Hot-loop region markers (biosim-lint rule `hot-loop-virtual`). Wrap the
// innermost per-agent/per-voxel loops of a fast path:
//
//   BIOSIM_HOT_LOOP_BEGIN();
//   for (...) { ... no dynamic_cast/typeid/std::function/virtual ... }
//   BIOSIM_HOT_LOOP_END();
//
// Every marked region must be closed in the same file; biosim-lint reports
// an unterminated region as a violation.
#define BIOSIM_HOT_LOOP_BEGIN() static_cast<void>(0)
#define BIOSIM_HOT_LOOP_END() static_cast<void>(0)

// Shard-scope region markers (biosim-lint rule `cross-shard-write`). Wrap
// the body of code that executes once per shard under the sharded pipeline
// (docs/sharding.md) — today the halo post/drain phases and the per-shard
// grid build in core/shard_runtime.cc:
//
//   BIOSIM_SHARD_SCOPE_BEGIN();
//   ... a shard may read anything but write only its own rows; effects on
//   ... domain-global state (substance deposits, agent creation/removal)
//   ... must be buffered and merged globally in row order afterwards.
//   BIOSIM_SHARD_SCOPE_END();
//
// Every marked region must be closed in the same file; biosim-lint reports
// an unterminated region as a violation. Sanctioned exceptions carry
// `// biosim-lint: allow(cross-shard-write)`.
#define BIOSIM_SHARD_SCOPE_BEGIN() static_cast<void>(0)
#define BIOSIM_SHARD_SCOPE_END() static_cast<void>(0)

#endif  // BIOSIM_CORE_ANALYSIS_H_
