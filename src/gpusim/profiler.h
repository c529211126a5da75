// nvprof-substitute: aggregate and render per-kernel profiles of a Device.
//
// Produces the metrics the paper extracts from nvprof: per-kernel time,
// FLOPs, DRAM/L2 traffic, arithmetic intensity, achieved GFLOP/s, and the
// L2-read fraction used in the Fig. 12 roofline discussion.
#ifndef BIOSIM_GPUSIM_PROFILER_H_
#define BIOSIM_GPUSIM_PROFILER_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "gpusim/device.h"

namespace biosim::gpusim {

/// Counters of all launches of one kernel name, summed.
struct AggregatedKernel : KernelStats {
  size_t launches = 0;
};

class ProfileReport {
 public:
  /// Aggregate the device's launch history by kernel name (first-launch
  /// order preserved). One map lookup per launch: try_emplace either finds
  /// the existing slot or claims the next index in the same probe.
  explicit ProfileReport(const Device& dev) {
    for (const KernelStats& k : dev.history()) {
      auto [it, inserted] = index_.try_emplace(k.name, kernels_.size());
      if (inserted) {
        AggregatedKernel agg;
        agg.name = k.name;
        agg.grid_dim = k.grid_dim;
        agg.block_dim = k.block_dim;
        agg.meter_stride = k.meter_stride;
        agg.sim_start_ms = k.sim_start_ms;  // first launch's offset
        kernels_.push_back(agg);
      }
      AggregatedKernel& agg = kernels_[it->second];
      agg.Accumulate(k);
      agg.launches += 1;
    }
  }

  const std::vector<AggregatedKernel>& kernels() const { return kernels_; }

  const AggregatedKernel* Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &kernels_[it->second];
  }

  std::string ToString() const {
    std::string out =
        "kernel                          launches   time_ms  comp_ms   mem_ms"
        "   lsu_ms   lat_ms  atom_ms   GFLOP/s   AI(flop/B)   dram_MB    "
        "L2hit_MB   L1hit_MB   L2read%   simd_eff\n";
    char line[256];
    for (const auto& k : kernels_) {
      snprintf(line, sizeof(line),
               "%-30s %8zu %9.3f %8.3f %8.3f %8.3f %8.3f %8.3f %9.1f %12.3f "
               "%9.2f %11.2f %10.2f %8.1f%% %10.2f\n",
               k.name.c_str(), k.launches, k.total_ms, k.compute_ms,
               k.memory_ms, k.lsu_ms, k.latency_ms, k.atomic_ms,
               k.AchievedGflops(),
               k.ArithmeticIntensity(),
               static_cast<double>(k.DramBytes()) / 1e6,
               static_cast<double>(k.L2HitBytes()) / 1e6,
               static_cast<double>(k.L1HitBytes()) / 1e6,
               100.0 * k.L2ReadHitFraction(), k.SimdEfficiency());
      out += line;
    }
    return out;
  }

 private:
  std::vector<AggregatedKernel> kernels_;
  std::map<std::string, size_t> index_;
};

}  // namespace biosim::gpusim

#endif  // BIOSIM_GPUSIM_PROFILER_H_
