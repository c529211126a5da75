// Chunked data-parallel primitives for the CPU execution engine.
//
// BioDynaMo parallelizes its operations with OpenMP; we do the same when
// OpenMP is available and fall back to a plain serial loop otherwise, so the
// library builds on any toolchain. All loops are deterministic: a reduction
// fixes its chunk boundaries up front, writes one partial per chunk and
// merges the partials in chunk order after the join
// (Simulation::RunBehaviors, ShardGrid::Build).
//
// Concurrency contract (enforced statically — docs/static-analysis.md):
// these are the ONLY sanctioned parallel primitives in sim code. Raw
// `#pragma omp ... reduction(...)` clauses and atomic float accumulation are
// rejected by biosim-lint (`fp-omp-reduction`) because their combine order
// depends on thread scheduling; per-chunk partials merged in chunk order
// are the deterministic replacement. Shared state mutated inside a
// ParallelFor(Chunks) body must be guarded (core/analysis.h
// BIOSIM_GUARDED_BY + Mutex) or be provably per-chunk/per-thread; the TSan
// build mode (`BIOSIM_SANITIZE=thread scripts/check.sh`) checks this
// dynamically.
#ifndef BIOSIM_CORE_THREAD_POOL_H_
#define BIOSIM_CORE_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>

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
    // `fork_token` and `join_token` re-publish the region's start and end
    // barriers to TSan (see core/analysis.h); the split parallel/for form
    // gives each worker a spot to acquire before and release after its
    // share of iterations. Identical static chunking to the combined
    // `parallel for` pragma.
    char fork_token = 0;
    char join_token = 0;
    TsanRelease(&fork_token);
#pragma omp parallel
    {
      TsanAcquire(&fork_token);
#pragma omp for schedule(static) nowait
      for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
        fn(static_cast<size_t>(i));
      }
      TsanRelease(&join_token);
    }
    TsanAcquire(&join_token);
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
    char fork_token = 0;
    char join_token = 0;
    TsanRelease(&fork_token);
#pragma omp parallel
    {
      TsanAcquire(&fork_token);
      size_t nthreads = static_cast<size_t>(omp_get_num_threads());
      size_t tid = static_cast<size_t>(omp_get_thread_num());
      size_t chunk = (n + nthreads - 1) / nthreads;
      size_t begin = tid * chunk;
      size_t end = begin + chunk < n ? begin + chunk : n;
      if (begin < end) {
        fn(begin, end);
      }
      TsanRelease(&join_token);
    }
    TsanAcquire(&join_token);
    return;
#endif
  }
  if (n > 0) {
    fn(size_t{0}, n);
  }
}

}  // namespace biosim

#endif  // BIOSIM_CORE_THREAD_POOL_H_
