// Chunked data-parallel primitives for the CPU execution engine.
//
// BioDynaMo parallelizes its operations with OpenMP; we do the same when
// OpenMP is available and fall back to a plain serial loop otherwise, so the
// library builds on any toolchain. All loops are deterministic: reductions
// combine per-chunk partials in chunk order.
//
// Concurrency contract (enforced statically — docs/static-analysis.md):
// these are the ONLY sanctioned parallel primitives in sim code. Raw
// `#pragma omp ... reduction(...)` clauses and atomic float accumulation are
// rejected by biosim-lint (`fp-omp-reduction`) because their combine order
// depends on thread scheduling; ParallelReduce is the deterministic
// replacement. Shared state mutated inside a ParallelFor(Chunks) body must
// be guarded (core/analysis.h BIOSIM_GUARDED_BY + Mutex) or be provably
// per-chunk/per-thread; the TSan build mode (`BIOSIM_SANITIZE=thread
// scripts/check.sh`) checks this dynamically.
#ifndef BIOSIM_CORE_THREAD_POOL_H_
#define BIOSIM_CORE_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/analysis.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace biosim {

/// Execution policy for engine operations; mirrors the paper's serial vs
/// multithreaded benchmark variants.
enum class ExecMode : uint8_t {
  kSerial,
  kParallel,
};

inline uint32_t HardwareThreads() {
#ifdef _OPENMP
  return static_cast<uint32_t>(omp_get_max_threads());
#else
  return 1;
#endif
}

/// Set the worker count for subsequent kParallel loops; 0 keeps the runtime
/// default.
inline void SetNumThreads(uint32_t n) {
#ifdef _OPENMP
  if (n > 0) {
    omp_set_num_threads(static_cast<int>(n));
  }
#else
  (void)n;
#endif
}

/// Run `fn(i)` for every i in [0, n).
template <typename F>
void ParallelFor(ExecMode mode, size_t n, F&& fn) {
  if (mode == ExecMode::kParallel) {
#ifdef _OPENMP
    // `token` re-publishes the end-of-region barrier to TSan (see
    // core/analysis.h); the split parallel/for form gives each worker a
    // spot to release after its share of iterations. Identical static
    // chunking to the combined `parallel for` pragma.
    char token = 0;
#pragma omp parallel
    {
#pragma omp for schedule(static) nowait
      for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
        fn(static_cast<size_t>(i));
      }
      TsanRelease(&token);
    }
    TsanAcquire(&token);
    return;
#endif
  }
  for (size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

/// Run `fn(begin, end)` over contiguous chunks of [0, n). Useful when the
/// body wants per-chunk scratch state (e.g. the uniform grid builder).
template <typename F>
void ParallelForChunks(ExecMode mode, size_t n, F&& fn) {
  if (mode == ExecMode::kParallel) {
#ifdef _OPENMP
    char token = 0;
#pragma omp parallel
    {
      size_t nthreads = static_cast<size_t>(omp_get_num_threads());
      size_t tid = static_cast<size_t>(omp_get_thread_num());
      size_t chunk = (n + nthreads - 1) / nthreads;
      size_t begin = tid * chunk;
      size_t end = begin + chunk < n ? begin + chunk : n;
      if (begin < end) {
        fn(begin, end);
      }
      TsanRelease(&token);
    }
    TsanAcquire(&token);
    return;
#endif
  }
  if (n > 0) {
    fn(size_t{0}, n);
  }
}

/// Deterministic parallel reduction: `fn(i)` values combined with `combine`,
/// partials merged in chunk order so the result is independent of scheduling.
template <typename T, typename F, typename C>
T ParallelReduce(ExecMode mode, size_t n, T init, F&& fn, C&& combine) {
  if (mode == ExecMode::kParallel) {
#ifdef _OPENMP
    int nthreads = omp_get_max_threads();
    std::vector<T> partials(static_cast<size_t>(nthreads), init);
    char token = 0;
#pragma omp parallel
    {
      size_t tid = static_cast<size_t>(omp_get_thread_num());
      T local = init;
#pragma omp for schedule(static) nowait
      for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
        local = combine(local, fn(static_cast<size_t>(i)));
      }
      partials[tid] = local;
      TsanRelease(&token);
    }
    // The acquire also orders the workers' partials[] stores before the
    // chunk-ordered merge below.
    TsanAcquire(&token);
    T result = init;
    for (const T& p : partials) {
      result = combine(result, p);
    }
    return result;
#endif
  }
  T result = init;
  for (size_t i = 0; i < n; ++i) {
    result = combine(result, fn(i));
  }
  return result;
}

}  // namespace biosim

#endif  // BIOSIM_CORE_THREAD_POOL_H_
