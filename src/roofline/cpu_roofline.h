// CPU-side roofline join: measured hardware counters vs the analytical
// machine model, per scheduler op.
//
// src/roofline/ert.h places kernels on the fig12 plot using *modeled*
// FLOP/byte (interaction_force.h's kForceFlops accounting) and the
// simulated device's ceilings. This header supplies the measured column:
// given an op's wall clock, its model work (flops/bytes from the same
// accounting), and the op's counter deltas (core/profiler.h), it derives
//
//   measured.gflops          model flops over measured seconds — the
//                            "achieved" y-coordinate, fig12 convention
//   measured.ipc             instructions / cycles
//   measured.bytes_per_cycle DRAM traffic per cycle (LLC misses x 64 B)
//   measured.ai              model flops / measured DRAM bytes
//   model.ai                 model flops / model bytes
//   ai_vs_model              measured.ai / model.ai — >1 means the cache
//                            absorbed traffic the model charges to DRAM
//                            (e.g. the Z-order permutation working), <1
//                            means extra traffic the model does not see.
//
// Counter caveats propagate: entries without counters emit the model side
// only, and LLC-dependent fields are omitted when the PMU lacks the event.
#ifndef BIOSIM_ROOFLINE_CPU_ROOFLINE_H_
#define BIOSIM_ROOFLINE_CPU_ROOFLINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "obs/json.h"

namespace biosim::roofline {

/// Cache-line granularity used to convert LLC misses to DRAM bytes.
inline constexpr uint64_t kCacheLineBytes = 64;

/// Model DRAM bytes per force evaluation: two positions (3 doubles each)
/// plus two diameters, the machine-model accounting used for fig12's
/// analytical x-coordinate. 24*2 + 8*2 = 64.
inline constexpr uint64_t kModelBytesPerForceEval = 64;

/// One scheduler op's inputs to the join. `model_flops`/`model_bytes` are
/// zero when no analytical accounting exists for the op (counters are
/// still reported; the model columns are omitted).
struct OpMeasurement {
  std::string name;
  double wall_ms = 0.0;
  uint64_t model_flops = 0;
  uint64_t model_bytes = 0;
  bool has_counters = false;
  bool has_llc = false;
  CounterSample counters;  // per-op delta, not cumulative
};

/// Convenience: the mechanical-forces op's model work from its evaluation
/// count (kForceFlops / kModelBytesPerForceEval per evaluation).
OpMeasurement ForceOpMeasurement(double wall_ms, uint64_t force_evaluations);

/// The report-v2 "roofline" section: one entry per op, model and measured
/// columns as described above. Ops appear in input order.
obs::json::Value MeasuredRooflineJson(const std::vector<OpMeasurement>& ops);

}  // namespace biosim::roofline

#endif  // BIOSIM_ROOFLINE_CPU_ROOFLINE_H_
