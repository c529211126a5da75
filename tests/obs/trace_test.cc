#include "obs/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "obs/json.h"
#include "obs/stage_scope.h"

namespace biosim::obs {
namespace {

// Collect all events of a given phase ("X" or "M") from a trace document.
std::vector<const json::Value*> EventsOfPhase(const json::Value& doc,
                                              const std::string& phase) {
  std::vector<const json::Value*> out;
  const json::Value* events = doc.Find("traceEvents");
  if (events == nullptr) {
    return out;
  }
  for (size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = (*events)[i];
    const json::Value* ph = e.Find("ph");
    if (ph != nullptr && ph->AsString() == phase) {
      out.push_back(&e);
    }
  }
  return out;
}

TEST(TraceSessionTest, DisabledByDefaultAndScopesAreNoOps) {
  ASSERT_EQ(TraceSession::current(), nullptr);
  { TRACE_SCOPE("ignored"); }  // must not crash without a session
}

TEST(TraceSessionTest, StageSpansSumToTheProfileTotal) {
  // A stage's trace span and its profile sample are one clock interval, so
  // the summed spans equal the profile total to within float rounding
  // (bounded here at 1 ns per call), nested stages included.
  TraceSession session;
  OpProfile profile;
  TraceSession::SetCurrent(&session);
  volatile uint64_t sink = 0;
  for (int i = 0; i < 50; ++i) {
    STAGE_SCOPE(&profile, "outer");
    STAGE_SCOPE(&profile, "inner");
    for (int k = 0; k < 1000; ++k) {
      sink = sink + static_cast<uint64_t>(k);
    }
  }
  { STAGE_SCOPE(nullptr, "traced only"); }
  TraceSession::SetCurrent(nullptr);

  std::string error;
  auto doc = json::Parse(session.ToChromeJson(), &error);
  ASSERT_NE(doc, nullptr) << error;
  auto spans = [&](const std::string& name, double* sum_us) {
    uint64_t calls = 0;
    *sum_us = 0.0;
    for (const json::Value* e : EventsOfPhase(*doc, "X")) {
      if (e->Find("name")->AsString() == name) {
        ++calls;
        *sum_us += e->Find("dur")->AsDouble();
      }
    }
    return calls;
  };
  for (const char* name : {"outer", "inner"}) {
    const OpProfile::Entry* e = profile.Find(name);
    ASSERT_NE(e, nullptr);
    double sum_us = 0.0;
    EXPECT_EQ(spans(name, &sum_us), e->calls()) << name;
    EXPECT_NEAR(sum_us * 1e3, e->total_ms() * 1e6,
                static_cast<double>(e->calls()))
        << name;
  }
  EXPECT_TRUE(profile.Find("inner")->nested);
  double sum_us = 0.0;
  EXPECT_EQ(spans("traced only", &sum_us), 1u);
  EXPECT_EQ(profile.Find("traced only"), nullptr);
}

TEST(TraceSessionTest, RecordsScopedSpansOnTheMainTrack) {
  TraceSession session;
  TraceSession::SetCurrent(&session);
  {
    TRACE_SCOPE("outer");
    { TRACE_SCOPE("inner"); }
  }
  TraceSession::SetCurrent(nullptr);

  EXPECT_EQ(session.event_count(), 2u);
  EXPECT_EQ(session.dropped(), 0u);

  std::string error;
  auto doc = json::Parse(session.ToChromeJson(), &error);
  ASSERT_NE(doc, nullptr) << error;

  // Metadata: host process plus a "main" thread label; no virtual process.
  bool saw_host = false;
  bool saw_main = false;
  for (const json::Value* m : EventsOfPhase(*doc, "M")) {
    const std::string what = m->Find("name")->AsString();
    const std::string label = m->Find("args")->Find("name")->AsString();
    if (what == "process_name") {
      EXPECT_EQ(label, "host");
      EXPECT_EQ(m->Find("pid")->AsDouble(), 1.0);
      saw_host = true;
    }
    if (what == "thread_name" && label == "main") {
      saw_main = true;
    }
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_main);

  // Spans: sorted by start, so "outer" (opened first) precedes "inner",
  // and "inner" nests inside it.
  auto spans = EventsOfPhase(*doc, "X");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->Find("name")->AsString(), "outer");
  EXPECT_EQ(spans[1]->Find("name")->AsString(), "inner");
  double outer_ts = spans[0]->Find("ts")->AsDouble();
  double outer_end = outer_ts + spans[0]->Find("dur")->AsDouble();
  double inner_ts = spans[1]->Find("ts")->AsDouble();
  double inner_end = inner_ts + spans[1]->Find("dur")->AsDouble();
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);

  EXPECT_EQ(doc->Find("otherData")->Find("dropped_events")->AsDouble(), 0.0);
}

TEST(TraceSessionTest, RingWrapsAndCountsDrops) {
  // Capacity is clamped to at least 16 events per thread.
  TraceSession session(/*events_per_thread=*/1);
  TraceSession::SetCurrent(&session);
  for (int i = 0; i < 20; ++i) {
    TRACE_SCOPE("span");
  }
  TraceSession::SetCurrent(nullptr);

  EXPECT_EQ(session.event_count(), 16u);
  EXPECT_EQ(session.dropped(), 4u);

  auto doc = json::Parse(session.ToChromeJson());
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->Find("otherData")->Find("dropped_events")->AsDouble(), 4.0);
  EXPECT_EQ(EventsOfPhase(*doc, "X").size(), 16u);
}

TEST(TraceSessionTest, VirtualSpansGetTheirOwnProcessAndCarryArgs) {
  TraceSession session;
  TraceSession::SetCurrent(&session);
  { TRACE_SCOPE("host work"); }
  TraceSession::SetCurrent(nullptr);

  session.AddVirtualSpan("gpu kernels", "ug_build", 10.0, 5.0,
                         {{"grid_dim", "128"}, {"simd_efficiency", "0.97"}});
  session.AddVirtualSpan("gpu kernels", "mech_interaction", 15.0, 20.0);

  std::string error;
  auto doc = json::Parse(session.ToChromeJson(), &error);
  ASSERT_NE(doc, nullptr) << error;

  bool saw_virtual_process = false;
  int gpu_tid = -1;
  for (const json::Value* m : EventsOfPhase(*doc, "M")) {
    const std::string what = m->Find("name")->AsString();
    const std::string label = m->Find("args")->Find("name")->AsString();
    if (what == "process_name" && label == "gpusim (virtual time)") {
      EXPECT_EQ(m->Find("pid")->AsDouble(), 2.0);
      saw_virtual_process = true;
    }
    if (what == "thread_name" && label == "gpu kernels") {
      gpu_tid = static_cast<int>(m->Find("tid")->AsDouble());
    }
  }
  EXPECT_TRUE(saw_virtual_process);
  // Virtual tids come after the host thread tids (one host thread here).
  EXPECT_EQ(gpu_tid, 1);

  const json::Value* ug_build = nullptr;
  for (const json::Value* e : EventsOfPhase(*doc, "X")) {
    if (e->Find("name")->AsString() == "ug_build") {
      ug_build = e;
    }
  }
  ASSERT_NE(ug_build, nullptr);
  EXPECT_EQ(ug_build->Find("pid")->AsDouble(), 2.0);
  EXPECT_EQ(ug_build->Find("tid")->AsDouble(), gpu_tid);
  EXPECT_DOUBLE_EQ(ug_build->Find("ts")->AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(ug_build->Find("dur")->AsDouble(), 5.0);
  const json::Value* args = ug_build->Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("grid_dim")->AsString(), "128");
  EXPECT_EQ(args->Find("simd_efficiency")->AsString(), "0.97");
}

TEST(TraceSessionTest, InternedNamesOutliveTheirSource) {
  TraceSession session;
  const char* name = nullptr;
  {
    std::string transient = "kernel_" + std::to_string(7);
    name = session.Intern(transient);
  }
  TraceSession::SetCurrent(&session);
  session.Record(name, 0, 100);
  TraceSession::SetCurrent(nullptr);

  auto doc = json::Parse(session.ToChromeJson());
  ASSERT_NE(doc, nullptr);
  auto spans = EventsOfPhase(*doc, "X");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0]->Find("name")->AsString(), "kernel_7");
}

TEST(TraceSessionTest, DestructorUninstallsItselfFromCurrent) {
  auto session = std::make_unique<TraceSession>();
  TraceSession::SetCurrent(session.get());
  EXPECT_EQ(TraceSession::current(), session.get());
  session.reset();
  EXPECT_EQ(TraceSession::current(), nullptr);
}

TEST(TraceSessionTest, BackToBackSessionsDoNotShareBuffers) {
  // A fresh session — possibly allocated where the previous one lived —
  // must re-register the thread instead of reusing a stale buffer.
  for (int round = 0; round < 4; ++round) {
    TraceSession session;
    TraceSession::SetCurrent(&session);
    { TRACE_SCOPE("round"); }
    TraceSession::SetCurrent(nullptr);
    EXPECT_EQ(session.event_count(), 1u) << "round " << round;
  }
}

}  // namespace
}  // namespace biosim::obs
