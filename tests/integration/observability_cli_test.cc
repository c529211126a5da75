// End-to-end contract of the PR-8 observability surface, exercised by
// spawning the real biosim_run binary:
//
//   --perf-counters        report gains "perf_counters" (+"roofline" on the
//                          CPU backend) whether or not the host allows
//                          perf_event_open; BIOSIM_PERF=off pins the
//                          degraded shape deterministically
//   --flight-recorder      a --verify-determinism divergence (forced via
//                          the BIOSIM_INJECT_DIVERGENCE test hook) exits 3
//                          AND leaves a parseable postmortem dump
//   --progress             heartbeat lines appear on stderr
//   report v2              environment carries hardware_threads AND
//                          worker_threads (the v1 ambiguity fix)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obs/json.h"

#ifndef BIOSIM_RUN_BIN
#error "BIOSIM_RUN_BIN must point at the biosim_run binary"
#endif

namespace biosim {
namespace {

int RunBiosim(const std::string& args, const std::string& env = "") {
  std::string cmd = env + (env.empty() ? "" : " ") + BIOSIM_RUN_BIN + " " +
                    args + " > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1) << "failed to spawn " << cmd;
  EXPECT_TRUE(WIFEXITED(status)) << "abnormal termination of " << cmd;
  return WEXITSTATUS(status);
}

std::unique_ptr<obs::json::Value> ReadJson(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.is_open()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  std::string err;
  auto doc = obs::json::Parse(ss.str(), &err);
  EXPECT_NE(doc, nullptr) << path << ": " << err;
  return doc;
}

TEST(ObservabilityCliTest, ReportV2CarriesBothThreadCounts) {
  std::string report = testutil::TempPath("obs_report_v2.json");
  ASSERT_EQ(RunBiosim("--steps 2 --threads 2 --report " + report), 0);
  auto doc = ReadJson(report);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->Find("report_version")->AsDouble(), 2.0);
  const obs::json::Value* env = doc->Find("environment");
  ASSERT_NE(env, nullptr);
  ASSERT_NE(env->Find("hardware_threads"), nullptr);
  ASSERT_NE(env->Find("worker_threads"), nullptr);
  EXPECT_EQ(env->Find("worker_threads")->AsDouble(), 2.0)
      << "--threads 2 must be recorded as the worker count";
  std::remove(report.c_str());
}

TEST(ObservabilityCliTest, PerfCountersSectionDegradedShape) {
  // BIOSIM_PERF=off forces the null backend, making the degraded shape
  // testable on any host (counter-capable ones included). 10 steps: the
  // default scenario's agents need a few divisions before any contact
  // forces (and thus roofline model flops) exist.
  std::string report = testutil::TempPath("obs_report_perf_off.json");
  ASSERT_EQ(RunBiosim("--steps 10 --perf-counters --report " + report,
                      "BIOSIM_PERF=off"),
            0);
  auto doc = ReadJson(report);
  ASSERT_NE(doc, nullptr);
  const obs::json::Value* perf = doc->Find("perf_counters");
  ASSERT_NE(perf, nullptr) << "--perf-counters must always emit the section";
  ASSERT_NE(perf->Find("available"), nullptr);
  EXPECT_FALSE(perf->Find("available")->AsBool());
  ASSERT_NE(perf->Find("reason"), nullptr);
  EXPECT_EQ(perf->Find("reason")->AsString(), "disabled by BIOSIM_PERF=off");
  // The roofline join still emits the model columns on the CPU backend.
  const obs::json::Value* roofline = doc->Find("roofline");
  ASSERT_NE(roofline, nullptr);
  const obs::json::Value* force =
      roofline->Find("ops")->Find("mechanical forces");
  ASSERT_NE(force, nullptr);
  ASSERT_NE(force->Find("model"), nullptr);
  EXPECT_GT(force->Find("model")->Find("flops")->AsDouble(), 0.0);
  std::remove(report.c_str());
}

TEST(ObservabilityCliTest, PerfCountersHostBehavior) {
  // Whatever this host permits, the run must succeed and the section must
  // be internally consistent (available:true => per-op table with the
  // scheduler's op names; available:false => a reason).
  std::string report = testutil::TempPath("obs_report_perf_host.json");
  ASSERT_EQ(RunBiosim("--steps 2 --perf-counters --report " + report), 0);
  auto doc = ReadJson(report);
  ASSERT_NE(doc, nullptr);
  const obs::json::Value* perf = doc->Find("perf_counters");
  ASSERT_NE(perf, nullptr);
  if (perf->Find("available")->AsBool()) {
    const obs::json::Value* ops = perf->Find("ops");
    ASSERT_NE(ops, nullptr);
    const obs::json::Value* force = ops->Find("mechanical forces");
    ASSERT_NE(force, nullptr);
    EXPECT_GT(force->Find("cycles")->AsDouble(), 0.0);
    EXPECT_GT(force->Find("instructions")->AsDouble(), 0.0);
    EXPECT_GT(force->Find("samples")->AsDouble(), 0.0);
  } else {
    EXPECT_FALSE(perf->Find("reason")->AsString().empty());
  }
  std::remove(report.c_str());
}

TEST(ObservabilityCliTest, InjectedDivergenceExitsThreeAndDumps) {
  std::string dump = testutil::TempPath("obs_divergence_dump.json");
  std::remove(dump.c_str());
  EXPECT_EQ(RunBiosim("--steps 4 --verify-determinism --flight-recorder " +
                          dump,
                      "BIOSIM_INJECT_DIVERGENCE=2"),
            3);
  auto doc = ReadJson(dump);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->Find("flight_recorder_version")->AsDouble(), 1.0);
  EXPECT_EQ(doc->Find("reason")->AsString(), "determinism-divergence");
  const obs::json::Value* ctx = doc->Find("context");
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->Find("first_divergent_step")->AsDouble(), 2.0);
  ASSERT_NE(ctx->Find("expected_hash"), nullptr);
  ASSERT_NE(ctx->Find("actual_hash"), nullptr);
  EXPECT_NE(ctx->Find("expected_hash")->AsString(),
            ctx->Find("actual_hash")->AsString());
  // The ring ends exactly at the divergent step.
  const obs::json::Value* steps = doc->Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_GT(steps->size(), 0u);
  EXPECT_EQ((*steps)[steps->size() - 1].Find("step")->AsDouble(), 2.0);
  std::remove(dump.c_str());
}

TEST(ObservabilityCliTest, CleanVerifyWithRecorderWritesNothing) {
  std::string dump = testutil::TempPath("obs_no_dump.json");
  std::remove(dump.c_str());
  EXPECT_EQ(
      RunBiosim("--steps 3 --verify-determinism --flight-recorder " + dump),
      0);
  std::ifstream f(dump);
  EXPECT_FALSE(f.is_open()) << "clean runs must not leave a dump";
  std::remove(dump.c_str());
}

TEST(ObservabilityCliTest, ProgressHeartbeatOnStderr) {
  std::string err_file = testutil::TempPath("obs_progress.err");
  std::string cmd = std::string(BIOSIM_RUN_BIN) +
                    " --steps 3 --progress 0.001 > /dev/null 2> " + err_file;
  int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream f(err_file);
  ASSERT_TRUE(f.is_open());
  std::string line;
  bool saw_heartbeat = false;
  while (std::getline(f, line)) {
    if (line.find("[biosim] step ") != std::string::npos &&
        line.find("steps/s") != std::string::npos &&
        line.find("hash ") != std::string::npos) {
      saw_heartbeat = true;
    }
  }
  EXPECT_TRUE(saw_heartbeat) << "no heartbeat line on stderr";
  std::remove(err_file.c_str());
}

}  // namespace
}  // namespace biosim
