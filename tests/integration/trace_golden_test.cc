// Golden-file test for the observability pipeline: a short traced run must
// produce a Chrome-trace JSON Perfetto can load (host + simulated-GPU
// tracks), per-step metrics JSONL, and a versioned run report — all
// parseable by obs::json and structurally sound.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../test_util.h"
#include "app/runner.h"
#include "obs/json.h"
#include "obs/report.h"

namespace biosim::app {
namespace {

using testutil::TempPath;

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class TraceGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.model_type = "cell_division";
    cfg_.cells_per_dim = 3;
    cfg_.backend_type = "gpu";
    cfg_.gpu_version = 2;
    cfg_.steps = 2;
    cfg_.trace_path = TempPath("golden_trace.json");
    cfg_.metrics_path = TempPath("golden_metrics.jsonl");
    cfg_.report_path = TempPath("golden_report.json");
  }
  void TearDown() override {
    for (const auto& p : {cfg_.trace_path, cfg_.metrics_path,
                          cfg_.report_path}) {
      std::remove(p.c_str());
    }
  }
  RunConfig cfg_;
};

TEST_F(TraceGoldenTest, TwoStepRunEmitsValidTraceMetricsAndReport) {
  RunSummary s = ExecuteRun(cfg_);
  EXPECT_GT(s.trace_events, 0u);
  EXPECT_EQ(s.trace_dropped, 0u);

  // --- Trace: parseable, expected structure. ---
  std::string error;
  auto trace = obs::json::Parse(Slurp(cfg_.trace_path), &error);
  ASSERT_NE(trace, nullptr) << error;
  const obs::json::Value* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> span_names;
  std::set<std::string> track_labels;
  // Per-(pid, tid) last start timestamp, to check per-track monotonicity.
  std::map<std::pair<int, int>, double> last_ts;
  size_t gpu_spans_with_args = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const obs::json::Value& e = (*events)[i];
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "M") {
      track_labels.insert(e.Find("args")->Find("name")->AsString());
      continue;
    }
    ASSERT_EQ(ph, "X");
    span_names.insert(e.Find("name")->AsString());
    int pid = static_cast<int>(e.Find("pid")->AsDouble());
    int tid = static_cast<int>(e.Find("tid")->AsDouble());
    double ts = e.Find("ts")->AsDouble();
    EXPECT_GE(e.Find("dur")->AsDouble(), 0.0);
    auto key = std::make_pair(pid, tid);
    auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regress on track " << pid
                                << "/" << tid;
    }
    last_ts[key] = ts;
    if (pid == 2 && e.Find("args") != nullptr) {
      ++gpu_spans_with_args;
      EXPECT_NE(e.Find("args")->Find("grid_dim"), nullptr);
    }
  }

  // Host scheduler spans.
  for (const char* expected :
       {"step", "cell behaviors", "commit", "neighborhood update",
        "mechanical forces", "gpu kernels", "gpu h2d", "gpu d2h"}) {
    EXPECT_TRUE(span_names.count(expected)) << "missing span: " << expected;
  }
  // Simulated-GPU kernel spans reconstructed from Device launch history.
  EXPECT_TRUE(span_names.count("ug_build"));
  EXPECT_TRUE(span_names.count("mech_interaction"));
  EXPECT_GT(gpu_spans_with_args, 0u);

  // Track metadata: host process, virtual GPU process, main thread.
  EXPECT_TRUE(track_labels.count("host"));
  EXPECT_TRUE(track_labels.count("gpusim (virtual time)"));
  EXPECT_TRUE(track_labels.count("main"));
  EXPECT_TRUE(track_labels.count("gpu kernels"));

  EXPECT_EQ(trace->Find("otherData")->Find("dropped_events")->AsDouble(),
            0.0);

  // --- Metrics: one parseable object per step, steps increasing. ---
  std::ifstream metrics(cfg_.metrics_path);
  ASSERT_TRUE(metrics.good());
  std::string line;
  uint64_t expect_step = 1;
  size_t lines = 0;
  while (std::getline(metrics, line)) {
    ++lines;
    auto v = obs::json::Parse(line, &error);
    ASSERT_NE(v, nullptr) << error << " in: " << line;
    EXPECT_EQ(static_cast<uint64_t>(v->Find("step")->AsDouble()),
              expect_step++);
    ASSERT_NE(v->Find("histograms"), nullptr);
    EXPECT_NE(v->Find("histograms")->Find("op/mechanical forces/ms"),
              nullptr);
    ASSERT_NE(v->Find("counters"), nullptr);
    EXPECT_NE(
        v->Find("counters")->Find("gpusim/kernel/mech_interaction/launches"),
        nullptr);
  }
  EXPECT_EQ(lines, 2u);

  // --- Report: versioned, echoes config, carries the summary. ---
  auto report = obs::json::Parse(Slurp(cfg_.report_path), &error);
  ASSERT_NE(report, nullptr) << error;
  EXPECT_EQ(report->Find("report_version")->AsDouble(),
            static_cast<double>(obs::kReportVersion));
  EXPECT_EQ(report->Find("tool")->AsString(), "biosim_run");
  ASSERT_NE(report->Find("config"), nullptr);
  EXPECT_EQ(report->Find("config")->Find("model_type")->AsString(),
            "cell_division");
  EXPECT_EQ(report->Find("config")->Find("backend_type")->AsString(), "gpu");
  ASSERT_NE(report->Find("environment"), nullptr);
  EXPECT_NE(report->Find("environment")->Find("compiler"), nullptr);
  const obs::json::Value* summary = report->Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("steps")->AsDouble(), 2.0);
  EXPECT_EQ(static_cast<uint64_t>(summary->Find("final_agents")->AsDouble()),
            s.final_agents);
  ASSERT_NE(summary->Find("trace"), nullptr);
  EXPECT_EQ(
      static_cast<uint64_t>(summary->Find("trace")->Find("events")->AsDouble()),
      s.trace_events);
  EXPECT_NE(report->Find("metrics"), nullptr);

  // The in-memory report the CLI prints under --json matches the file.
  EXPECT_EQ(s.report_json + "\n", Slurp(cfg_.report_path));
}

TEST_F(TraceGoldenTest, MetricsEveryThinsSnapshotsButKeepsFinalStep) {
  cfg_.steps = 5;
  cfg_.metrics_every = 2;
  cfg_.trace_path.clear();
  cfg_.report_path.clear();
  ExecuteRun(cfg_);

  std::ifstream metrics(cfg_.metrics_path);
  std::vector<uint64_t> steps;
  std::string line;
  while (std::getline(metrics, line)) {
    auto v = obs::json::Parse(line);
    ASSERT_NE(v, nullptr);
    steps.push_back(static_cast<uint64_t>(v->Find("step")->AsDouble()));
  }
  EXPECT_EQ(steps, (std::vector<uint64_t>{2, 4, 5}));
}

}  // namespace
}  // namespace biosim::app
