// STAGE_SCOPE: the one instrument per pipeline stage.
//
// A StageScope reads the steady clock once at open and once at close; that
// one interval is both the stage's Fig. 3 profile sample (core/profiler.h)
// and its trace span, so the two views cannot disagree. With a counting
// PerfSession installed it also adds the counter-group delta to the same
// profile entry, reading the group outside the timed interval. A null
// `profile` leaves the trace span only. A stage opened inside another is
// nested in the profile, so the step's TOTAL counts it once.
//
// An optional simulated device is a second clock: the device time accrued
// while the stage was open becomes the nested "<name> (sim)" row (the GPU
// backend's phases; the device timeline is its own trace track).
//
//   { STAGE_SCOPE(profile, "halo exchange"); ExchangeHalos(rm, mode); }
//   { STAGE_SCOPE(profile, "gpu h2d", &device()); Upload(...); }
#ifndef BIOSIM_OBS_STAGE_SCOPE_H_
#define BIOSIM_OBS_STAGE_SCOPE_H_

#include <chrono>

#include "core/profiler.h"
#include "obs/trace.h"

namespace biosim::gpusim {
class Device;
}  // namespace biosim::gpusim

namespace biosim::obs {

class PerfSession;

class StageScope {
 public:
  /// `name` must outlive any trace session (a string literal in practice).
  StageScope(OpProfile* profile, const char* name,
             const gpusim::Device* device = nullptr);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  OpProfile* profile_;
  OpProfile::Entry* entry_ = nullptr;
  TraceSession* trace_;
  PerfSession* perf_ = nullptr;
  const gpusim::Device* device_;
  const char* name_;
  CounterSample counters_start_;
  double device_start_ms_ = 0.0;
  Clock::time_point start_;
};

}  // namespace biosim::obs

/// The stage covering the enclosing scope: STAGE_SCOPE(profile, name) or
/// STAGE_SCOPE(profile, name, device).
#define STAGE_SCOPE(profile, ...)                                    \
  ::biosim::obs::StageScope BIOSIM_TRACE_CONCAT(stage_scope_, __LINE__)( \
      profile, __VA_ARGS__)

#endif  // BIOSIM_OBS_STAGE_SCOPE_H_
