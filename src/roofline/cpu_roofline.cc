#include "roofline/cpu_roofline.h"

#include <utility>

#include "physics/interaction_force.h"

namespace biosim::roofline {

OpMeasurement ForceOpMeasurement(double wall_ms,
                                 uint64_t force_evaluations) {
  OpMeasurement m;
  m.name = "mechanical forces";
  m.wall_ms = wall_ms;
  m.model_flops = force_evaluations * static_cast<uint64_t>(kForceFlops);
  m.model_bytes = force_evaluations * kModelBytesPerForceEval;
  return m;
}

obs::json::Value MeasuredRooflineJson(const std::vector<OpMeasurement>& ops) {
  using obs::json::Value;
  Value section = Value::MakeObject();
  section.Set("flop_accounting",
              "machine-model flops (interaction_force.h), measured time "
              "and traffic");
  section.Set("cache_line_bytes", kCacheLineBytes);
  Value table = Value::MakeObject();
  for (const OpMeasurement& op : ops) {
    Value row = Value::MakeObject();
    row.Set("wall_ms", op.wall_ms);
    double wall_s = op.wall_ms / 1e3;
    bool has_model = op.model_flops > 0;
    if (has_model) {
      Value model = Value::MakeObject();
      model.Set("flops", op.model_flops);
      model.Set("bytes", op.model_bytes);
      if (op.model_bytes > 0) {
        model.Set("ai", static_cast<double>(op.model_flops) /
                            static_cast<double>(op.model_bytes));
      }
      row.Set("model", std::move(model));
    }
    if (op.has_counters) {
      Value meas = Value::MakeObject();
      meas.Set("ipc", op.counters.Ipc());
      meas.Set("effective_ghz", op.counters.EffectiveGhz());
      if (has_model && wall_s > 0) {
        meas.Set("gflops",
                 static_cast<double>(op.model_flops) / wall_s / 1e9);
      }
      if (op.has_llc) {
        uint64_t dram_bytes = op.counters.llc_misses * kCacheLineBytes;
        meas.Set("dram_bytes", dram_bytes);
        if (op.counters.cycles > 0) {
          meas.Set("bytes_per_cycle",
                   static_cast<double>(dram_bytes) /
                       static_cast<double>(op.counters.cycles));
        }
        if (has_model && dram_bytes > 0) {
          double measured_ai = static_cast<double>(op.model_flops) /
                               static_cast<double>(dram_bytes);
          meas.Set("ai", measured_ai);
          if (op.model_bytes > 0) {
            double model_ai = static_cast<double>(op.model_flops) /
                              static_cast<double>(op.model_bytes);
            meas.Set("ai_vs_model", measured_ai / model_ai);
          }
        }
      }
      row.Set("measured", std::move(meas));
    }
    table.Set(op.name, std::move(row));
  }
  section.Set("ops", std::move(table));
  return section;
}

}  // namespace biosim::roofline
