#include "obs/stage_scope.h"

#include <string>

#include "gpusim/device.h"
#include "obs/perf_counters.h"

namespace biosim::obs {

StageScope::StageScope(OpProfile* profile, const char* name,
                       const gpusim::Device* device)
    : profile_(profile),
      trace_(TraceSession::current()),
      device_(profile != nullptr ? device : nullptr),
      name_(name) {
  if (profile_ != nullptr) {
    entry_ = &profile_->OpenStage(name);
    PerfSession* perf = PerfSession::current();
    if (perf != nullptr && perf->available()) {
      perf_ = perf;
      counters_start_ = perf_->Read();
    }
  }
  if (device_ != nullptr) {
    device_start_ms_ = device_->ElapsedMs();
  }
  start_ = Clock::now();
}

StageScope::~StageScope() {
  const auto ns = static_cast<uint64_t>(
      std::chrono::nanoseconds(Clock::now() - start_).count());
  if (perf_ != nullptr) {
    entry_->AddCounters(perf_->Read() - counters_start_);
  }
  if (profile_ != nullptr) {
    entry_->hist.Add(static_cast<double>(ns) * 1e-6);
    if (device_ != nullptr) {
      // Still open, so the row is created nested in this stage.
      profile_->Add(std::string(name_) + " (sim)",
                    device_->ElapsedMs() - device_start_ms_);
    }
    profile_->CloseStage();
  }
  if (trace_ != nullptr) {
    trace_->Record(name_, trace_->SinceEpochNs(start_), ns);
  }
}

}  // namespace biosim::obs
