// Fixture: deterministic reductions — one partial per chunk, merged in
// chunk order after the join (the idiom of Simulation::RunBehaviors and
// ShardGrid::Build), and integer atomics, which carry no FP ordering.
#include <atomic>
#include <cstddef>
#include <vector>

namespace fixture {
double SumForces(const double* f, size_t n, size_t nchunks) {
  std::vector<double> partials(nchunks, 0.0);
  // (Each chunk runs on its own worker; the loop here stands in for the
  // parallel region.)
  for (size_t c = 0; c < nchunks; ++c) {
    size_t chunk = (n + nchunks - 1) / nchunks;
    size_t begin = c * chunk;
    size_t end = begin + chunk < n ? begin + chunk : n;
    for (size_t i = begin; i < end; ++i) {
      partials[c] += f[i];
    }
  }
  double total = 0.0;
  for (double p : partials) {  // combined in chunk order: deterministic
    total += p;
  }
  return total;
}
std::atomic<size_t> g_eval_count{0};  // integer atomic: order-independent
}  // namespace fixture
