// Flight-recorder contract: ring semantics, JSON validity of normal and
// signal dumps, and the real crash path — a forked child raises SIGSEGV
// and the parent validates the postmortem document the handler wrote.
#include "obs/flight_recorder.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>
#include <signal.h>

#include "gtest/gtest.h"
#include "../test_util.h"
#include "obs/json.h"

namespace biosim::obs {
namespace {

FlightRecorder::StepRecord MakeRecord(uint64_t step) {
  FlightRecorder::StepRecord r;
  r.step = step;
  r.state_hash = 0xfeed000000000000ull | step;
  r.agents = 1000 + step;
  r.substances = 1;
  r.wall_ms = 2.25;
  r.op_ms = {{"mechanical forces", 1.5}, {"diffusion", 0.5}};
  return r;
}

using testutil::TempPath;

json::Value ReadJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  std::string body;
  if (f != nullptr) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      body.append(buf, n);
    }
    std::fclose(f);
  }
  std::string err;
  std::unique_ptr<json::Value> v = json::Parse(body, &err);
  EXPECT_NE(v, nullptr) << err << "\n" << body;
  return v != nullptr ? std::move(*v) : json::Value();
}

TEST(FlightRecorder, DumpIsValidJsonOldestToNewest) {
  FlightRecorder rec(8);
  for (uint64_t s = 1; s <= 5; ++s) {
    rec.RecordStep(MakeRecord(s));
  }
  EXPECT_EQ(rec.recorded_steps(), 5u);

  std::string path = TempPath("flight_manual.json");
  ASSERT_TRUE(rec.Dump(path, "manual"));
  json::Value doc = ReadJsonFile(path);
  ASSERT_NE(doc.Find("flight_recorder_version"), nullptr);
  EXPECT_EQ(doc.Find("flight_recorder_version")->AsDouble(), 1);
  EXPECT_EQ(doc.Find("reason")->AsString(), "manual");
  EXPECT_EQ(doc.Find("signal"), nullptr) << "non-signal dump has no signal";
  const json::Value* steps = doc.Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_EQ(steps->size(), 5u);
  for (size_t i = 0; i < steps->size(); ++i) {
    const json::Value& s = (*steps)[i];
    EXPECT_EQ(s.Find("step")->AsDouble(), static_cast<double>(i + 1));
    EXPECT_EQ(s.Find("agents")->AsDouble(), static_cast<double>(1001 + i));
    ASSERT_NE(s.Find("ops"), nullptr);
    EXPECT_NE(s.Find("ops")->Find("mechanical forces"), nullptr);
  }
}

TEST(FlightRecorder, RingWrapsKeepingTheNewest) {
  FlightRecorder rec(4);
  for (uint64_t s = 1; s <= 10; ++s) {
    rec.RecordStep(MakeRecord(s));
  }
  std::string path = TempPath("flight_wrap.json");
  ASSERT_TRUE(rec.Dump(path, "manual"));
  json::Value doc = ReadJsonFile(path);
  EXPECT_EQ(doc.Find("recorded_steps")->AsDouble(), 10);
  const json::Value* steps = doc.Find("steps");
  ASSERT_EQ(steps->size(), 4u);
  EXPECT_EQ((*steps)[0].Find("step")->AsDouble(), 7);
  EXPECT_EQ((*steps)[3].Find("step")->AsDouble(), 10);
}

TEST(FlightRecorder, CounterDeltaAppearsWhenRecorded) {
  FlightRecorder rec(2);
  FlightRecorder::StepRecord r = MakeRecord(1);
  r.has_counters = true;
  r.counters.cycles = 12345;
  r.counters.instructions = 67890;
  rec.RecordStep(r);
  std::string path = TempPath("flight_counters.json");
  ASSERT_TRUE(rec.Dump(path, "manual"));
  json::Value doc = ReadJsonFile(path);
  const json::Value* counters = (*doc.Find("steps"))[0].Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("cycles")->AsDouble(), 12345);
  EXPECT_EQ(counters->Find("instructions")->AsDouble(), 67890);
}

TEST(FlightRecorder, ContextObjectAttachesToNormalDumps) {
  FlightRecorder rec(2);
  rec.RecordStep(MakeRecord(1));
  json::Value ctx = json::Value::MakeObject();
  ctx.Set("expected_hash", "00000000deadbeef");
  ctx.Set("first_divergent_step", 1);
  std::string path = TempPath("flight_ctx.json");
  ASSERT_TRUE(rec.Dump(path, "determinism-divergence", &ctx));
  json::Value doc = ReadJsonFile(path);
  EXPECT_EQ(doc.Find("reason")->AsString(), "determinism-divergence");
  const json::Value* got = doc.Find("context");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->Find("expected_hash")->AsString(), "00000000deadbeef");
}

TEST(FlightRecorder, OverlongOpListTruncatesAtACompleteField) {
  // Enough ops to overflow the 1 KiB slot: the slot must stay valid JSON
  // (the whole ops block is dropped rather than torn mid-field).
  FlightRecorder rec(2);
  FlightRecorder::StepRecord r = MakeRecord(1);
  r.op_ms.clear();
  static char names[64][32];
  for (int i = 0; i < 64; ++i) {
    std::snprintf(names[i], sizeof(names[i]), "very long op name %02d", i);
    r.op_ms.emplace_back(names[i], 0.125 * i);
  }
  rec.RecordStep(r);
  std::string path = TempPath("flight_trunc.json");
  ASSERT_TRUE(rec.Dump(path, "manual"));
  json::Value doc = ReadJsonFile(path);  // Parse() fails on torn JSON
  ASSERT_EQ(doc.Find("steps")->size(), 1u);
  EXPECT_EQ((*doc.Find("steps"))[0].Find("step")->AsDouble(), 1);
}

TEST(FlightRecorder, SignalDumpFromForkedChild) {
  std::string path = TempPath("flight_sigsegv.json");
  std::remove(path.c_str());

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record a few steps, install handlers, die by SIGSEGV. The
    // gtest machinery must not run in the child — raw _exit on any
    // unexpected path.
    FlightRecorder rec(8);
    for (uint64_t s = 1; s <= 3; ++s) {
      rec.RecordStep(MakeRecord(s));
    }
    if (!rec.InstallSignalHandlers(path)) {
      _exit(97);
    }
    raise(SIGSEGV);
    _exit(98);  // unreachable if the handler re-raises correctly
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child must die by the re-raised signal, status=" << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  json::Value doc = ReadJsonFile(path);
  EXPECT_EQ(doc.Find("reason")->AsString(), "signal");
  ASSERT_NE(doc.Find("signal"), nullptr);
  EXPECT_EQ(doc.Find("signal")->AsDouble(), SIGSEGV);
  ASSERT_EQ(doc.Find("steps")->size(), 3u);
  EXPECT_EQ((*doc.Find("steps"))[2].Find("step")->AsDouble(), 3);
}

/// The handler a disposition dispatches to, whichever union member it uses.
void* HandlerOf(const struct sigaction& sa) {
  return (sa.sa_flags & SA_SIGINFO) != 0
             ? reinterpret_cast<void*>(sa.sa_sigaction)
             : reinterpret_cast<void*>(sa.sa_handler);
}

TEST(FlightRecorder, UninstallRestoresDefaultDisposition) {
  // Uninstall restores whatever disposition was there before install:
  // SIG_DFL in a plain build, the sanitizer runtime's handler under ASan.
  // The child inherits the parent's disposition across fork.
  struct sigaction before;
  ASSERT_EQ(sigaction(SIGSEGV, nullptr, &before), 0);
  const bool default_before = HandlerOf(before) ==
                              reinterpret_cast<void*>(SIG_DFL);
  std::string path = TempPath("flight_uninstall.json");
  std::remove(path.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    FlightRecorder rec(4);
    rec.RecordStep(MakeRecord(1));
    if (!rec.InstallSignalHandlers(path)) {
      _exit(97);
    }
    rec.UninstallSignalHandlers();
    struct sigaction after;
    if (sigaction(SIGSEGV, nullptr, &after) != 0 ||
        HandlerOf(after) != HandlerOf(before)) {
      _exit(96);
    }
    raise(SIGSEGV);
    _exit(98);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 96)
      << "uninstall left a different SIGSEGV disposition than install found";
  ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 97)
      << "install failed";
  ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 98)
      << "SIGSEGV returned to the child";
  if (default_before) {
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  }
  // No dump: the handler was uninstalled before the crash.
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr) << "uninstalled recorder must not dump";
  if (f != nullptr) {
    std::fclose(f);
  }
}

}  // namespace
}  // namespace biosim::obs
