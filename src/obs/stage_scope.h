// STAGE_SCOPE: the one instrument per pipeline stage.
//
// Opens a trace span, a hardware-counter scope and a Fig. 3 profile stage
// under one name, in this fixed order, so the trace, perf and profile
// views always cover the same stages. `profile` may be null (the stage
// then feeds the trace and perf views only). A stage opened inside another
// is recorded as nested in the profile (core/profiler.h), so the step's
// TOTAL counts it once: Simulation opens the five pipeline stages, and an
// Environment::Update may open its phases inside "neighborhood update".
//
//   { STAGE_SCOPE(profile, "halo exchange"); ExchangeHalos(rm, mode); }
#ifndef BIOSIM_OBS_STAGE_SCOPE_H_
#define BIOSIM_OBS_STAGE_SCOPE_H_

#include "core/profiler.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

#define STAGE_SCOPE(profile, name)                                  \
  TRACE_SCOPE(name);                                                \
  PERF_SCOPE(name);                                                 \
  ::biosim::OpProfile::ScopedStage BIOSIM_TRACE_CONCAT(stage_scope_, \
                                                       __LINE__)(profile, name)

#endif  // BIOSIM_OBS_STAGE_SCOPE_H_
