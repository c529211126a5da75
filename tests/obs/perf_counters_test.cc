// Hardware-counter layer contract: graceful degradation, the null
// backend, session installation semantics, sample arithmetic, and the
// per-stage counter table built from the profile. Real
// counter values cannot be asserted portably (CI containers commonly
// forbid perf_event_open), so the tests pin the behavior that must hold
// on EVERY host: never crash, never lie about availability, zero-delta
// reads when unavailable, and well-formed JSON either way.
#include "obs/perf_counters.h"

#include <cstdlib>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/stage_scope.h"

namespace biosim::obs {
namespace {

TEST(CounterSample, SubtractClampsAndAccumulates) {
  CounterSample a;
  a.cycles = 100;
  a.instructions = 250;
  a.llc_misses = 5;
  a.task_clock_ns = 50;
  CounterSample b;
  b.cycles = 40;
  b.instructions = 50;
  b.llc_misses = 9;  // counter went backwards (multiplex glitch)
  CounterSample d = a - b;
  EXPECT_EQ(d.cycles, 60u);
  EXPECT_EQ(d.instructions, 200u);
  EXPECT_EQ(d.llc_misses, 0u) << "negative deltas must clamp, not wrap";

  CounterSample total;
  total.Accumulate(d);
  total.Accumulate(d);
  EXPECT_EQ(total.cycles, 120u);
  EXPECT_EQ(total.instructions, 400u);
}

TEST(CounterSample, DerivedRates) {
  CounterSample s;
  s.cycles = 1000;
  s.instructions = 2500;
  s.task_clock_ns = 500;
  s.time_enabled_ns = 100;
  s.time_running_ns = 50;
  EXPECT_DOUBLE_EQ(s.Ipc(), 2.5);
  EXPECT_DOUBLE_EQ(s.EffectiveGhz(), 2.0);
  EXPECT_DOUBLE_EQ(s.RunningFraction(), 0.5);

  CounterSample zero;
  EXPECT_DOUBLE_EQ(zero.Ipc(), 0.0);
  EXPECT_DOUBLE_EQ(zero.EffectiveGhz(), 0.0);
  EXPECT_DOUBLE_EQ(zero.RunningFraction(), 1.0) << "no data = no multiplex";
}

TEST(PerfSession, ForcedNullBackendNeverCrashes) {
  ::setenv("BIOSIM_PERF", "off", 1);
  {
    PerfSession session;
    EXPECT_FALSE(session.available());
    EXPECT_EQ(session.unavailable_reason(), "disabled by BIOSIM_PERF=off");

    // Reads are zero deltas.
    CounterSample s = session.Read();
    EXPECT_EQ(s.cycles, 0u);
    EXPECT_EQ(s.instructions, 0u);

    OpProfile profile;
    PerfSession::SetCurrent(&session);
    {
      STAGE_SCOPE(&profile, "noop op");  // timed; no counters: unavailable
    }
    PerfSession::SetCurrent(nullptr);
    ASSERT_NE(profile.Find("noop op"), nullptr);
    EXPECT_EQ(profile.Find("noop op")->calls(), 1u);
    EXPECT_EQ(profile.Find("noop op")->counter_samples, 0u);

    json::Value v = session.ToJson(profile);
    const json::Value* available = v.Find("available");
    ASSERT_NE(available, nullptr);
    EXPECT_FALSE(available->AsBool());
    const json::Value* reason = v.Find("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_FALSE(reason->AsString().empty());
  }
  ::unsetenv("BIOSIM_PERF");
}

TEST(PerfSession, WhateverTheHostGivesIsReportedHonestly) {
  // On a counter-capable host this exercises the real backend; on a
  // restricted host (containers, perf_event_paranoid > 2, no PMU) it
  // exercises degradation. Both must produce a consistent session.
  PerfSession session;
  if (session.available()) {
    EXPECT_TRUE(session.unavailable_reason().empty());
    OpProfile profile;
    PerfSession::SetCurrent(&session);
    {
      STAGE_SCOPE(&profile, "spin");
      volatile uint64_t sink = 0;
      for (int i = 0; i < 100000; ++i) {
        sink = sink + static_cast<uint64_t>(i);
      }
    }
    PerfSession::SetCurrent(nullptr);
    const OpProfile::Entry* e = profile.Find("spin");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->counter_samples, 1u);
    EXPECT_GT(e->counters.cycles, 0u);
    EXPECT_GT(e->counters.instructions, 0u);
    json::Value v = session.ToJson(profile);
    ASSERT_NE(v.Find("ops"), nullptr);
    ASSERT_NE(v.Find("ops")->Find("spin"), nullptr);
  } else {
    EXPECT_FALSE(session.unavailable_reason().empty())
        << "unavailable sessions must say why";
    CounterSample s = session.Read();
    EXPECT_EQ(s.cycles, 0u);
  }
}

TEST(StageScope, NoSessionReadsNoCounters) {
  ASSERT_EQ(PerfSession::current(), nullptr);
  // The contract TRACE_SCOPE also honors: no session, no effect. This
  // must not touch any syscall (asserted by not crashing under the
  // restrictive default container policy).
  OpProfile profile;
  for (int i = 0; i < 1000; ++i) {
    STAGE_SCOPE(&profile, "unobserved");
  }
  EXPECT_EQ(profile.Find("unobserved")->calls(), 1000u);
  EXPECT_EQ(profile.Find("unobserved")->counter_samples, 0u);
  // Without a profile or a trace session a stage records nothing at all.
  { STAGE_SCOPE(nullptr, "ignored"); }
}

TEST(StageCounters, AccumulateGroupsByName) {
  // The per-stage counter table is the profile's: deltas land on the
  // stage's entry, and the "ops" JSON and the perf/<stage>/* gauges are
  // built from the entries that carry any. Fabricated deltas drive both,
  // whatever counters the host allows.
  OpProfile profile;
  CounterSample d;
  d.cycles = 10;
  d.instructions = 20;
  d.llc_misses = 3;
  profile.Get("a").AddCounters(d);
  profile.Get("b").AddCounters(d);
  profile.Get("a").AddCounters(d);
  profile.Add("timed only", 1.0);
  ASSERT_EQ(profile.entries().size(), 3u);
  EXPECT_EQ(profile.entries()[0].name, "a");
  EXPECT_EQ(profile.entries()[0].counter_samples, 2u);
  EXPECT_EQ(profile.entries()[0].counters.cycles, 20u);
  EXPECT_EQ(profile.entries()[1].name, "b");
  EXPECT_EQ(profile.entries()[1].counter_samples, 1u);

  PerfEvents events;
  events.llc_misses = true;
  json::Value ops = StageCountersJson(profile, events);
  ASSERT_EQ(ops.members().size(), 2u) << "only counted stages get a row";
  EXPECT_EQ(ops.members()[0].first, "a");
  EXPECT_EQ(ops.members()[1].first, "b");
  const json::Value& a = ops.members()[0].second;
  EXPECT_DOUBLE_EQ(a.Find("samples")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(a.Find("cycles")->AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(a.Find("llc_misses")->AsDouble(), 6.0);
  EXPECT_EQ(a.Find("branch_misses"), nullptr) << "event not counted";
  EXPECT_DOUBLE_EQ(a.Find("ipc")->AsDouble(), 2.0);

  MetricsRegistry reg;
  CollectStageCounters(profile, events, &reg);
  json::Value gauges = *reg.ToJson().Find("gauges");
  EXPECT_DOUBLE_EQ(gauges.Find("perf/a/cycles")->AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(gauges.Find("perf/a/llc_misses")->AsDouble(), 6.0);
  EXPECT_DOUBLE_EQ(gauges.Find("perf/b/ipc")->AsDouble(), 2.0);
  EXPECT_EQ(gauges.Find("perf/a/branch_misses"), nullptr);
  EXPECT_EQ(gauges.Find("perf/timed only/cycles"), nullptr);
}

}  // namespace
}  // namespace biosim::obs
