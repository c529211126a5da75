#include "app/runner.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include <memory>
#include <vector>

#include "core/behaviors/secretion.h"
#include "core/checkpoint.h"
#include "core/export.h"
#include "core/timer.h"
#include "core/timeseries.h"
#include "gpu/gpu_mechanical_op.h"
#include "obs/flight_recorder.h"
#include "obs/gpu_trace.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "roofline/cpu_roofline.h"
#include "spatial/null_environment.h"
#include "spatial/uniform_grid.h"

namespace biosim::app {

namespace {

double SpaceForDensity(size_t agents, double radius, double n) {
  double sphere = 4.0 / 3.0 * math::kPi * radius * radius * radius;
  return std::cbrt(static_cast<double>(agents) * sphere / n);
}

/// Echo the effective configuration into the run report, so a report is
/// self-describing without the .ini file next to it.
obs::json::Value ConfigJson(const RunConfig& cfg) {
  obs::json::Value v = obs::json::Value::MakeObject();
  v.Set("steps", cfg.steps);
  v.Set("seed", cfg.seed);
  v.Set("max_bound", cfg.max_bound);
  v.Set("timestep", cfg.timestep);
  v.Set("max_displacement", cfg.max_displacement);
  v.Set("boundary", cfg.boundary);
  v.Set("threads", cfg.num_threads);
  v.Set("cpu_fast_path", cfg.cpu_fast_path);
  v.Set("simd", cfg.simd);
  v.Set("zorder_every", cfg.zorder_every);
  if (cfg.shards > 0) {
    v.Set("shards", cfg.shards);
    v.Set("shard_balance", cfg.shard_balance);
  }
  v.Set("model_type", cfg.model_type);
  if (cfg.model_type == "cell_division") {
    v.Set("cells_per_dim", cfg.cells_per_dim);
    v.Set("divide_threshold", cfg.divide_threshold);
    v.Set("growth_rate", cfg.growth_rate);
  } else {
    v.Set("agents", cfg.agents);
    v.Set("density", cfg.density);
  }
  v.Set("diameter", cfg.diameter);
  if (cfg.substance_resolution > 0) {
    v.Set("substance_resolution", cfg.substance_resolution);
    v.Set("substance_diffusion", cfg.substance_diffusion);
    v.Set("substance_decay", cfg.substance_decay);
    v.Set("secretion_rate", cfg.secretion_rate);
  }
  v.Set("backend_type", cfg.backend_type);
  if (cfg.backend_type == "gpu") {
    v.Set("gpu_version", cfg.gpu_version);
    v.Set("gpu_device", cfg.gpu_device);
    v.Set("meter_stride", cfg.meter_stride);
    v.Set("parallel_blocks", cfg.parallel_blocks);
    v.Set("sanitize", cfg.sanitize);
    v.Set("racy_grid_build", cfg.racy_grid_build);
  }
  return v;
}

/// The worker count a run actually uses (0 in the config means hardware
/// concurrency), for environment.worker_threads.
int ResolvedWorkerThreads(const RunConfig& cfg) {
  return cfg.num_threads > 0 ? static_cast<int>(cfg.num_threads)
                             : HardwareThreads();
}

/// Per-step op wall-time deltas against a previous snapshot of the
/// cumulative profile. Names point into the profile's stable deque storage.
std::vector<std::pair<const char*, double>> OpDeltas(
    const OpProfile& profile, std::vector<double>* prev_totals) {
  std::vector<std::pair<const char*, double>> deltas;
  const auto& entries = profile.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    double prev = i < prev_totals->size() ? (*prev_totals)[i] : 0.0;
    deltas.emplace_back(entries[i].name.c_str(),
                        entries[i].total_ms() - prev);
  }
  prev_totals->resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    (*prev_totals)[i] = entries[i].total_ms();
  }
  return deltas;
}

/// Build the flight-recorder summary for the step just completed.
obs::FlightRecorder::StepRecord MakeStepRecord(
    const Simulation& sim, double step_wall_ms,
    std::vector<double>* prev_totals, const obs::CounterSample* delta) {
  obs::FlightRecorder::StepRecord rec;
  rec.step = sim.step();
  rec.state_hash = sim.StateHash();
  rec.agents = sim.rm().size();
  rec.substances = sim.diffusion_grid_count();
  rec.wall_ms = step_wall_ms;
  rec.op_ms = OpDeltas(const_cast<Simulation&>(sim).profile(), prev_totals);
  if (delta != nullptr) {
    rec.has_counters = true;
    rec.counters = *delta;
  }
  if (const ShardRuntime* srt = sim.shard_runtime()) {
    rec.shards = srt->shards();
    if (srt->ghosts_received().size() == srt->shards()) {
      for (uint64_t g : srt->ghosts_received()) {
        rec.shard_ghosts += g;
      }
    }
    rec.shard_migrations = srt->last_migrations();
  }
  return rec;
}

/// Test hook: BIOSIM_INJECT_DIVERGENCE=<step> makes VerifyDeterminism
/// report a fabricated hash mismatch at that step of the last comparison
/// run, exercising the real exit-3 + flight-dump path without needing a
/// genuinely nondeterministic build. Returns -1 when unset.
int64_t InjectedDivergenceStep() {
  const char* v = std::getenv("BIOSIM_INJECT_DIVERGENCE");
  return v != nullptr ? std::atoll(v) : -1;
}

}  // namespace

std::unique_ptr<Simulation> BuildSimulation(const RunConfig& cfg) {
  cfg.Validate();

  Param param;
  param.random_seed = cfg.seed;
  param.num_threads = cfg.num_threads;
  param.cpu_fast_path = cfg.cpu_fast_path;
  param.cpu_simd = cfg.simd;
  param.zorder_cadence = static_cast<uint32_t>(cfg.zorder_every);
  param.num_shards = cfg.shards;
  param.shard_balance = cfg.shard_balance == "adaptive"
                            ? ShardBalance::kAdaptive
                            : ShardBalance::kStatic;
  param.simulation_time_step = cfg.timestep;
  param.simulation_max_displacement = cfg.max_displacement;
  param.min_bound = 0.0;
  param.max_bound = cfg.max_bound;
  if (cfg.boundary == "torus") {
    param.boundary_mode = BoundaryMode::kTorus;
  } else if (cfg.boundary == "open") {
    param.boundary_mode = BoundaryMode::kOpen;
  }
  if (cfg.model_type == "random_cloud") {
    // Size the cube for the requested density (benchmark-B style).
    param.max_bound =
        SpaceForDensity(cfg.agents, cfg.diameter / 2.0 * 2.0, cfg.density);
  }

  auto sim = std::make_unique<Simulation>(param);

  if (cfg.model_type == "cell_division") {
    sim->Create3DCellGrid(cfg.cells_per_dim, cfg.divide_threshold,
                          cfg.diameter, cfg.divide_threshold,
                          cfg.growth_rate);
  } else {
    sim->CreateRandomCells(cfg.agents, cfg.diameter);
  }

  if (cfg.substance_resolution > 0) {
    // One extracellular substance spanning the (possibly density-derived)
    // simulation cube.
    sim->AddDiffusionGrid(std::make_unique<DiffusionGrid>(
        "oxygen", sim->param().min_bound, sim->param().max_bound,
        cfg.substance_resolution, cfg.substance_diffusion,
        cfg.substance_decay));
    if (cfg.secretion_rate != 0.0) {
      for (size_t i = 0; i < sim->rm().size(); ++i) {
        sim->rm().AttachBehavior(static_cast<AgentIndex>(i),
                                 std::make_unique<Secretion>(
                                     "oxygen", cfg.secretion_rate));
      }
    }
  }

  if (cfg.backend_type == "gpu") {
    gpusim::DeviceSpec spec = cfg.gpu_device == "v100"
                                  ? gpusim::DeviceSpec::TeslaV100()
                                  : gpusim::DeviceSpec::GTX1080Ti();
    gpu::GpuMechanicsOptions opts =
        gpu::GpuMechanicsOptions::Version(cfg.gpu_version, std::move(spec));
    opts.meter_stride = cfg.meter_stride;
    opts.parallel_blocks = cfg.parallel_blocks;
    opts.sanitize = cfg.sanitize;
    opts.racy_grid_build = cfg.racy_grid_build;
    sim->SetEnvironment(std::make_unique<NullEnvironment>());
    sim->SetMechanicsBackend(std::make_unique<gpu::GpuMechanicalOp>(opts));
  }
  return sim;
}

DeterminismReport VerifyDeterminism(const RunConfig& cfg) {
  cfg.Validate();

  auto hash_trajectory = [](const RunConfig& run_cfg) {
    auto sim = BuildSimulation(run_cfg);
    std::vector<uint64_t> hashes;
    hashes.reserve(run_cfg.steps + 1);
    hashes.push_back(sim->StateHash());
    for (uint64_t s = 0; s < run_cfg.steps; ++s) {
      sim->Simulate(1);
      hashes.push_back(sim->StateHash());
    }
    return hashes;
  };

  // Reference, a same-config repeat (catches run-to-run scheduling
  // nondeterminism), and a single-thread run (catches any dependence on the
  // worker count; skipped when the configured count already is 1).
  std::vector<RunConfig> runs{cfg, cfg};
  if (cfg.num_threads != 1) {
    RunConfig serial = cfg;
    serial.num_threads = 1;
    runs.push_back(serial);
  }
  // Sharded configs additionally verify against the unsharded pipeline —
  // the sharding determinism contract promises bitwise-identical hashes for
  // ANY shard count, including zero (docs/sharding.md).
  if (cfg.shards > 0) {
    RunConfig unsharded = cfg;
    unsharded.shards = 0;
    runs.push_back(unsharded);
    RunConfig resharded = cfg;
    resharded.shards = cfg.shards == 1 ? 2 : cfg.shards / 2;
    runs.push_back(resharded);
  }

  int64_t inject_step = InjectedDivergenceStep();

  DeterminismReport report;
  report.runs = static_cast<int>(runs.size());
  std::vector<uint64_t> reference = hash_trajectory(runs[0]);
  report.deterministic = true;
  report.final_hash = reference.back();
  for (size_t r = 1; r < runs.size(); ++r) {
    // Comparison runs step incrementally against the reference so a
    // divergence stops the run at the offending step — which is exactly
    // when the flight-recorder ring still ends at that step.
    auto sim = BuildSimulation(runs[r]);
    std::unique_ptr<obs::FlightRecorder> flight;
    std::vector<double> prev_totals;
    if (!cfg.flight_recorder_path.empty()) {
      flight = std::make_unique<obs::FlightRecorder>(
          static_cast<size_t>(cfg.flight_recorder_depth));
    }
    for (size_t s = 0; s < reference.size(); ++s) {
      Timer step_timer;
      if (s > 0) {
        sim->Simulate(1);
      }
      uint64_t hash = sim->StateHash();
      if (inject_step >= 0 && r + 1 == runs.size() &&
          s == static_cast<size_t>(inject_step)) {
        hash ^= 1;  // fabricated single-bit divergence (test hook)
      }
      if (flight != nullptr) {
        obs::FlightRecorder::StepRecord rec = MakeStepRecord(
            *sim, s > 0 ? step_timer.ElapsedMs() : 0.0, &prev_totals,
            nullptr);
        rec.state_hash = hash;
        flight->RecordStep(rec);
      }
      if (hash != reference[s]) {
        report.deterministic = false;
        report.first_divergent_step = s;
        if (flight != nullptr) {
          obs::json::Value ctx = obs::json::Value::MakeObject();
          ctx.Set("run", static_cast<uint64_t>(r));
          ctx.Set("runs", static_cast<uint64_t>(runs.size()));
          ctx.Set("worker_threads",
                  static_cast<uint64_t>(runs[r].num_threads));
          ctx.Set("first_divergent_step", static_cast<uint64_t>(s));
          char hex[17];
          std::snprintf(hex, sizeof(hex), "%016llx",
                        static_cast<unsigned long long>(reference[s]));
          ctx.Set("expected_hash", hex);
          std::snprintf(hex, sizeof(hex), "%016llx",
                        static_cast<unsigned long long>(hash));
          ctx.Set("actual_hash", hex);
          flight->Dump(cfg.flight_recorder_path, "determinism-divergence",
                       &ctx);
        }
        return report;
      }
    }
  }
  return report;
}

RunSummary ExecuteRun(const RunConfig& cfg) {
  auto sim = BuildSimulation(cfg);

  TimeSeriesRecorder recorder;
  recorder.AddMetric("population", metrics::PopulationSize);
  recorder.AddMetric("mean_diameter", metrics::MeanDiameter);
  recorder.AddMetric("total_volume", metrics::TotalVolume);

  RunSummary summary;
  summary.initial_agents = sim->rm().size();

  auto require = [](bool ok, const std::string& what) {
    if (!ok) {
      throw std::runtime_error("failed to write " + what);
    }
  };

  auto* gpu_op =
      dynamic_cast<gpu::GpuMechanicalOp*>(&sim->mechanics_backend());
  auto* cpu_backend =
      dynamic_cast<CpuMechanicsBackend*>(&sim->mechanics_backend());

  std::unique_ptr<obs::PerfSession> perf;

  // Everything observability reads comes from the subsystems' cumulative
  // accounting, so a snapshot is just a fresh registry filled on demand.
  auto collect = [&](obs::MetricsRegistry* reg) {
    obs::CollectOpProfile(sim->profile(), reg);
    if (gpu_op != nullptr) {
      obs::CollectDevice(gpu_op->device(), reg);
    }
    if (DiffusionGrid* grid = sim->diffusion_grid()) {
      obs::CollectDiffusionGrid(*grid, reg);
    }
    if (const auto* ug = dynamic_cast<const UniformGridEnvironment*>(
            &sim->environment())) {
      obs::CollectUniformGrid(*ug, reg);
    }
    obs::CollectRuntime(reg, ResolvedWorkerThreads(cfg));
    if (perf != nullptr) {
      obs::CollectPerfSession(perf.get(), reg);
    }
    const ShardRuntime* srt = sim->shard_runtime();
    if (srt != nullptr && srt->partition().shards == srt->shards()) {
      // Copy into the obs-layer POD: obs does not link the engine.
      std::vector<obs::ShardObsStats> stats(srt->shards());
      const bool have_ghosts =
          srt->ghosts_received().size() == srt->shards();
      for (uint32_t k = 0; k < srt->shards(); ++k) {
        stats[k].owned_agents = srt->owned_rows(k).size();
        stats[k].ghosts_shipped = have_ghosts ? srt->ghosts_received()[k] : 0;
        stats[k].first_plane = srt->partition().first_plane(k);
        stats[k].end_plane = srt->partition().end_plane(k);
      }
      obs::CollectShards(stats, srt->last_migrations(), reg);
    }
  };

  std::unique_ptr<obs::MetricsJsonlWriter> metrics_out;
  if (!cfg.metrics_path.empty()) {
    metrics_out = std::make_unique<obs::MetricsJsonlWriter>(cfg.metrics_path);
    require(metrics_out->ok(), cfg.metrics_path);
  }

  // Tracing covers exactly the stepped run; installed only when requested,
  // so the default path keeps TRACE_SCOPE on its nullptr fast path.
  std::unique_ptr<obs::TraceSession> trace;
  if (!cfg.trace_path.empty()) {
    trace = std::make_unique<obs::TraceSession>();
    obs::TraceSession::SetCurrent(trace.get());
  }

  // Hardware counters mirror tracing: opt-in, installed for exactly the
  // stepped run, harmless when the syscall is unavailable (the session
  // then reports available: false and PERF_SCOPE reads nothing).
  if (cfg.perf_counters) {
    perf = std::make_unique<obs::PerfSession>();
    obs::PerfSession::SetCurrent(perf.get());
  }

  // The flight recorder keeps the last-N-step ring and owns the crash
  // handlers for the duration of the run.
  std::unique_ptr<obs::FlightRecorder> flight;
  std::vector<double> flight_prev_totals;
  if (!cfg.flight_recorder_path.empty()) {
    flight = std::make_unique<obs::FlightRecorder>(
        static_cast<size_t>(cfg.flight_recorder_depth));
    flight->InstallSignalHandlers(cfg.flight_recorder_path);
  }

  // Cumulative force evaluations for the roofline join (CPU backend's
  // counter is per-call, so accumulate across steps).
  uint64_t force_evaluations = 0;

  Timer t;
  double last_heartbeat_ms = 0.0;
  for (uint64_t s = 0; s < cfg.steps; ++s) {
    recorder.Record(*sim);
    obs::CounterSample perf_before;
    if (flight != nullptr && perf != nullptr && perf->available()) {
      perf_before = perf->Read();
    }
    Timer step_timer;
    sim->Simulate(1);
    if (cpu_backend != nullptr) {
      force_evaluations += cpu_backend->last_force_evaluations();
    }
    if (flight != nullptr) {
      obs::CounterSample delta;
      bool have_delta = perf != nullptr && perf->available();
      if (have_delta) {
        delta = perf->Read() - perf_before;
      }
      flight->RecordStep(MakeStepRecord(*sim, step_timer.ElapsedMs(),
                                        &flight_prev_totals,
                                        have_delta ? &delta : nullptr));
    }
    if (metrics_out != nullptr &&
        ((s + 1) % cfg.metrics_every == 0 || s + 1 == cfg.steps)) {
      obs::MetricsRegistry snapshot;
      collect(&snapshot);
      require(metrics_out->WriteSnapshot(s + 1, snapshot), cfg.metrics_path);
    }
    if (cfg.progress_seconds > 0.0) {
      double elapsed_ms = t.ElapsedMs();
      if (elapsed_ms - last_heartbeat_ms >= cfg.progress_seconds * 1e3 ||
          s + 1 == cfg.steps) {
        last_heartbeat_ms = elapsed_ms;
        double done = static_cast<double>(s + 1);
        double steps_per_sec = done / (elapsed_ms / 1e3);
        double eta_s = elapsed_ms > 0.0
                           ? (static_cast<double>(cfg.steps) - done) /
                                 steps_per_sec
                           : 0.0;
        std::fprintf(stderr,
                     "[biosim] step %llu/%llu  %.1f steps/s  eta %.1fs  "
                     "agents %zu  hash %08llx\n",
                     static_cast<unsigned long long>(s + 1),
                     static_cast<unsigned long long>(cfg.steps),
                     steps_per_sec, eta_s, sim->rm().size(),
                     static_cast<unsigned long long>(sim->StateHash() >>
                                                     32));
      }
    }
  }
  recorder.Record(*sim);
  summary.wall_ms = t.ElapsedMs();
  if (trace != nullptr) {
    obs::TraceSession::SetCurrent(nullptr);
  }
  if (perf != nullptr) {
    obs::PerfSession::SetCurrent(nullptr);
  }
  summary.final_agents = sim->rm().size();
  summary.profile = sim->profile().ToString();
  if (gpu_op != nullptr) {
    summary.gpu_simulated_ms = gpu_op->SimulatedMs();
    if (const gpusim::Sanitizer* san = gpu_op->device().sanitizer()) {
      summary.sanitizer_hazards = san->report().total();
      summary.sanitizer_report = san->report().ToString();
    }
  }

  if (trace != nullptr) {
    if (gpu_op != nullptr) {
      obs::AppendDeviceTimeline(gpu_op->device(), trace.get());
    }
    summary.trace_events = trace->event_count();
    summary.trace_dropped = trace->dropped();
    require(trace->WriteChromeJson(cfg.trace_path), cfg.trace_path);
  }

  // The run report is always built (biosim_run --json prints it); the file
  // is only written when configured.
  {
    obs::MetricsRegistry final_metrics;
    collect(&final_metrics);
    obs::json::Value report =
        obs::MakeRunReport("biosim_run", ResolvedWorkerThreads(cfg));
    report.Set("config", ConfigJson(cfg));
    obs::json::Value s = obs::json::Value::MakeObject();
    s.Set("steps", cfg.steps);
    s.Set("initial_agents", summary.initial_agents);
    s.Set("final_agents", summary.final_agents);
    s.Set("wall_ms", summary.wall_ms);
    if (gpu_op != nullptr) {
      s.Set("gpu_simulated_ms", summary.gpu_simulated_ms);
    }
    if (cfg.sanitize) {
      s.Set("sanitizer_hazards", summary.sanitizer_hazards);
    }
    if (trace != nullptr) {
      obs::json::Value tr = obs::json::Value::MakeObject();
      tr.Set("path", cfg.trace_path);
      tr.Set("events", summary.trace_events);
      tr.Set("dropped", summary.trace_dropped);
      s.Set("trace", std::move(tr));
    }
    report.Set("summary", std::move(s));
    report.Set("metrics", final_metrics.ToJson());
    if (perf != nullptr) {
      report.Set("perf_counters", perf->ToJson());
      // Roofline join: the measured column for fig12, model accounting
      // from the physics layer, traffic from the LLC-miss counter. Only
      // the CPU backend has the evaluation-count accounting.
      if (cpu_backend != nullptr) {
        std::vector<roofline::OpMeasurement> ops;
        roofline::OpMeasurement force = roofline::ForceOpMeasurement(
            sim->profile().TotalMs("mechanical forces"), force_evaluations);
        if (perf->available()) {
          if (const obs::PerfSession::OpEntry* e =
                  perf->Find("mechanical forces")) {
            force.has_counters = true;
            force.has_llc = perf->has_llc_misses();
            force.counters = e->total;
          }
        }
        ops.push_back(std::move(force));
        report.Set("roofline", roofline::MeasuredRooflineJson(ops));
      }
    }
    summary.report_json = report.Dump(2);
    if (!cfg.report_path.empty()) {
      require(obs::WriteReportFile(report, cfg.report_path), cfg.report_path);
    }
  }

  if (flight != nullptr) {
    flight->UninstallSignalHandlers();
  }

  if (!cfg.timeseries_path.empty()) {
    require(recorder.WriteCsv(cfg.timeseries_path), cfg.timeseries_path);
  }
  if (!cfg.vtk_path.empty()) {
    require(ExportCellsVtk(sim->rm(), cfg.vtk_path), cfg.vtk_path);
  }
  if (!cfg.csv_path.empty()) {
    require(ExportCellsCsv(sim->rm(), cfg.csv_path), cfg.csv_path);
  }
  if (!cfg.checkpoint_path.empty()) {
    require(SaveCheckpoint(sim->rm(), cfg.checkpoint_path),
            cfg.checkpoint_path);
  }
  return summary;
}

}  // namespace biosim::app
