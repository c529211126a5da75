#include "obs/perf_counters.h"

#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#if __has_include(<linux/perf_event.h>)
#define BIOSIM_PERF_BACKEND 1
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif
#endif

namespace biosim::obs {

std::atomic<PerfSession*> PerfSession::current_{nullptr};

namespace {

/// True when the environment forces the null backend.
bool ForcedOff() {
  const char* v = std::getenv("BIOSIM_PERF");
  return v != nullptr && std::strcmp(v, "off") == 0;
}

#ifdef BIOSIM_PERF_BACKEND

int PerfEventOpen(perf_event_attr* attr, int group_fd) {
  // pid=0, cpu=-1: count this thread, on any CPU it runs on.
  return static_cast<int>(syscall(SYS_perf_event_open, attr, 0, -1, group_fd,
                                  0));
}

perf_event_attr MakeAttr(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  // Counting user-space only keeps the group openable at
  // perf_event_paranoid <= 2 (the common distro default); kernel-side
  // cycles are not interesting for the simulation loop anyway.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  attr.disabled = 0;
  return attr;
}

const char* ErrnoName(int err) {
  switch (err) {
    case EACCES:
      return "EACCES (perf_event_paranoid?)";
    case EPERM:
      return "EPERM (perf_event_paranoid?)";
    case ENOSYS:
      return "ENOSYS (no perf_event_open)";
    case ENOENT:
      return "ENOENT (event unsupported)";
    case ENODEV:
      return "ENODEV (no PMU)";
    default:
      return std::strerror(err);
  }
}

#endif  // BIOSIM_PERF_BACKEND

}  // namespace

PerfSession::PerfSession() {
  if (ForcedOff()) {
    reason_ = "disabled by BIOSIM_PERF=off";
    return;
  }
#ifdef BIOSIM_PERF_BACKEND
  // Leader: CPU cycles. If this one cannot open, nothing hardware-side can.
  perf_event_attr cycles =
      MakeAttr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  fds_[0] = PerfEventOpen(&cycles, -1);
  if (fds_[0] < 0) {
    reason_ = std::string("perf_event_open: ") + ErrnoName(errno);
    return;
  }
  // Members join the leader's group so one read() snapshots all of them
  // atomically. Instructions must open for IPC to mean anything; LLC and
  // branch misses are optional (absent on some virtualized PMUs) and the
  // task clock is a software event, which always schedules.
  perf_event_attr instr =
      MakeAttr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  fds_[1] = PerfEventOpen(&instr, fds_[0]);
  if (fds_[1] < 0) {
    reason_ = std::string("perf_event_open(instructions): ") +
              ErrnoName(errno);
    close(fds_[0]);
    fds_[0] = -1;
    return;
  }
  perf_event_attr llc = MakeAttr(PERF_TYPE_HARDWARE,
                                 PERF_COUNT_HW_CACHE_MISSES);
  fds_[2] = PerfEventOpen(&llc, fds_[0]);
  events_.llc_misses = fds_[2] >= 0;
  perf_event_attr branch =
      MakeAttr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES);
  fds_[3] = PerfEventOpen(&branch, fds_[0]);
  events_.branch_misses = fds_[3] >= 0;
  perf_event_attr clock =
      MakeAttr(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
  fds_[4] = PerfEventOpen(&clock, fds_[0]);
  events_.task_clock = fds_[4] >= 0;

  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  available_ = true;
#else
  reason_ = "perf_event_open not supported on this platform";
#endif
}

PerfSession::~PerfSession() {
#ifdef BIOSIM_PERF_BACKEND
  for (int& fd : fds_) {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }
#endif
}

CounterSample PerfSession::Read() const {
  CounterSample s;
#ifdef BIOSIM_PERF_BACKEND
  if (!available_) {
    return s;
  }
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr] in
  // group-join order (only successfully opened members are in the group).
  uint64_t buf[3 + 5] = {0};
  ssize_t n = read(fds_[0], buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) {
    return s;
  }
  s.time_enabled_ns = buf[1];
  s.time_running_ns = buf[2];
  size_t slot = 3;
  uint64_t nr = buf[0];
  auto next = [&]() -> uint64_t { return slot - 3 < nr ? buf[slot++] : 0; };
  s.cycles = next();
  s.instructions = next();
  if (events_.llc_misses) {
    s.llc_misses = next();
  }
  if (events_.branch_misses) {
    s.branch_misses = next();
  }
  if (events_.task_clock) {
    s.task_clock_ns = next();
  }
#endif
  return s;
}

json::Value PerfSession::ToJson(const OpProfile& profile) const {
  json::Value v = json::Value::MakeObject();
  v.Set("available", available_);
  if (!available_) {
    v.Set("reason", reason_);
    return v;
  }
  json::Value ev = json::Value::MakeObject();
  ev.Set("cycles", true);
  ev.Set("instructions", true);
  ev.Set("llc_misses", events_.llc_misses);
  ev.Set("branch_misses", events_.branch_misses);
  ev.Set("task_clock", events_.task_clock);
  v.Set("events", std::move(ev));
  v.Set("ops", StageCountersJson(profile, events_));
  return v;
}

json::Value StageCountersJson(const OpProfile& profile,
                              const PerfEvents& events) {
  json::Value ops = json::Value::MakeObject();
  for (const OpProfile::Entry& e : profile.entries()) {
    if (e.counter_samples == 0) {
      continue;
    }
    const CounterSample& c = e.counters;
    json::Value o = json::Value::MakeObject();
    o.Set("samples", e.counter_samples);
    o.Set("cycles", c.cycles);
    o.Set("instructions", c.instructions);
    if (events.llc_misses) {
      o.Set("llc_misses", c.llc_misses);
    }
    if (events.branch_misses) {
      o.Set("branch_misses", c.branch_misses);
    }
    o.Set("task_clock_ns", c.task_clock_ns);
    o.Set("ipc", c.Ipc());
    o.Set("effective_ghz", c.EffectiveGhz());
    o.Set("running_fraction", c.RunningFraction());
    ops.Set(e.name, std::move(o));
  }
  return ops;
}

}  // namespace biosim::obs
