// Shared infrastructure for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure of the paper (see
// DESIGN.md §3). The scenarios here are the paper's two workloads:
//
//   Benchmark A (Section III): a 3D lattice of cells that grow and divide
//   for 10 iterations; measures the mechanical-interaction operation
//   (neighborhood update + forces) across implementations. Full scale is
//   64^3 = 262,144 starting cells; the default is scaled down so the
//   simulation-of-a-simulation finishes in CI time (--full restores it).
//
//   Benchmark B (Section V): N cells at random positions in a cube sized
//   for a target mean neighborhood density n, with max displacement 0 so
//   the density stays constant. Full scale is 2M agents; default 100k.
#ifndef BIOSIM_BENCH_COMMON_H_
#define BIOSIM_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "app/config.h"
#include "core/simulation.h"
#include "core/timer.h"
#include "gpu/gpu_mechanical_op.h"
#include "obs/json.h"
#include "obs/report.h"
#include "perfmodel/cpu_model.h"
#include "spatial/kd_tree.h"
#include "spatial/null_environment.h"
#include "spatial/uniform_grid.h"

namespace biosim::bench {

/// `parse(value, flag)` with one of the config file's checked parsers
/// (app/config.h); a malformed or out-of-domain value prints the parser's
/// message, which names the flag, and exits 2.
template <typename Parse>
auto FlagOrExit(Parse parse, const char* flag, const char* value) {
  try {
    return parse(value, flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

/// Minimal command-line flags shared by the figure benches.
struct Options {
  bool full = false;        // paper-scale problem sizes
  bool profile = false;     // print per-kernel profiles (GPU runs)
  size_t cells_per_dim = 0; // benchmark A override (0 = default)
  size_t num_agents = 0;    // benchmark B override (0 = default)
  int iterations = 10;      // both benchmarks use 10 iterations
  int meter_stride = 8;     // GPU counter sampling (1 = exact, slower)
  std::string csv_prefix;   // write plot-ready CSVs as <prefix>_<name>.csv
  std::string json_path;    // write a machine-readable run report here

  static Options Parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        o.full = true;
      } else if (std::strcmp(argv[i], "--profile") == 0) {
        o.profile = true;
      } else if (std::strcmp(argv[i], "--cells") == 0 && i + 1 < argc) {
        o.cells_per_dim =
            FlagOrExit(app::ToCount<size_t>, "--cells", argv[++i]);
      } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
        o.num_agents =
            FlagOrExit(app::ToCount<size_t>, "--agents", argv[++i]);
      } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
        o.iterations =
            FlagOrExit(app::ToCount<int>, "--iterations", argv[++i]);
      } else if (std::strcmp(argv[i], "--meter-stride") == 0 && i + 1 < argc) {
        o.meter_stride =
            FlagOrExit(app::ToCount<int>, "--meter-stride", argv[++i]);
      } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
        o.csv_prefix = argv[++i];
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        o.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf(
            "flags: --full | --cells N | --agents N | --iterations N | "
            "--meter-stride N | --csv PREFIX | --json PATH | --profile\n");
        std::exit(0);
      }
    }
    return o;
  }

  size_t BenchmarkACells() const {
    if (cells_per_dim > 0) {
      return cells_per_dim;
    }
    return full ? 64 : 28;  // paper: 64^3 = 262,144
  }

  size_t BenchmarkBAgents() const {
    if (num_agents > 0) {
      return num_agents;
    }
    return full ? 2'000'000 : 100'000;  // paper: 2M
  }
};

/// Benchmark A population: cells_per_dim^3 cells, spacing 20 µm, diameter 8,
/// grow to 16 then divide. The growth rate is set so a cell needs ~5 steps
/// to reach the division threshold (~2 doublings over the 10-iteration
/// benchmark), matching the gentle proliferation of the paper's cell
/// division module; the daughters append behind the lattice-ordered
/// mothers, which is the memory-layout decay Improvement II repairs.
inline void SetUpBenchmarkA(Simulation* sim, size_t cells_per_dim) {
  sim->param().max_bound =
      std::max(1000.0, static_cast<double>(cells_per_dim) * 15.0 + 200.0);
  // Spacing just below the division threshold diameter: fully grown cells
  // overlap their lattice neighbors and daughters wedge in between, giving
  // the dense contact structure of the paper's Fig. 2.
  sim->Create3DCellGrid(cells_per_dim, 15.0, 8.0, 16.0,
                        /*growth_rate=*/40000.0);
}

/// Cube edge that yields a mean neighborhood density of `n` neighbors within
/// `radius` for `agents` uniformly random agents: n = rho * 4/3 pi r^3.
inline double SpaceForDensity(size_t agents, double radius, double n) {
  double sphere = 4.0 / 3.0 * math::kPi * radius * radius * radius;
  double volume = static_cast<double>(agents) * sphere / n;
  return std::cbrt(volume);
}

/// Benchmark B population: `agents` random cells of diameter 10 in a cube
/// sized for density `n`; displacement disabled so n stays constant.
inline void SetUpBenchmarkB(Simulation* sim, size_t agents, double density) {
  sim->param().simulation_max_displacement = 0.0;
  sim->param().min_bound = 0.0;
  sim->param().max_bound = SpaceForDensity(agents, 10.0, density);
  sim->CreateRandomCells(agents, 10.0);
}

/// Wall-clock ms of `iterations` steps of the (neighborhood + mechanics)
/// pipeline on the CPU, for the given environment and exec mode. This is
/// the *measured* quantity; thread-count projections use CpuScalingModel.
struct CpuRun {
  double total_ms = 0.0;
  size_t final_agents = 0;
};

inline CpuRun RunCpuMechanics(Simulation* sim, int iterations) {
  CpuRun r;
  sim->Simulate(static_cast<uint64_t>(iterations));
  // Only the operation under study (Fig. 8 measures the mechanical
  // interaction operation, which includes the neighborhood update).
  r.total_ms = sim->profile().TotalMs("neighborhood update") +
               sim->profile().TotalMs("mechanical forces");
  r.final_agents = sim->rm().size();
  return r;
}

/// Simulated GPU run. The Z-order sort of Improvement II is charged on the
/// device clock (modeled radix sort; see gpu_mechanical_op.cc), so the
/// device time is the whole operation.
struct GpuRun {
  double device_ms = 0.0;
  size_t final_agents = 0;
  double TotalMs() const { return device_ms; }
};

inline GpuRun RunGpuMechanics(Simulation* sim, gpu::GpuMechanicalOp* op,
                              int iterations) {
  GpuRun r;
  sim->Simulate(static_cast<uint64_t>(iterations));
  r.device_ms = op->SimulatedMs();
  r.final_agents = sim->rm().size();
  return r;
}

/// Open "<prefix>_<name>.csv" for a figure's data series; nullptr when no
/// --csv was requested or the file cannot be created.
inline std::FILE* OpenCsv(const Options& opts, const char* name) {
  if (opts.csv_prefix.empty()) {
    return nullptr;
  }
  std::string path = opts.csv_prefix + "_" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
  return f;
}

inline void PrintHeader(const char* what) {
  std::printf("==========================================================\n");
  std::printf("%s\n", what);
  std::printf("==========================================================\n");
}

/// Write the bench's machine-readable run report (obs/report.h shape:
/// report_version + tool + environment + options echo + the bench's
/// `results` section) to --json PATH. No-op when --json was not given.
inline void WriteBenchReport(const Options& opts, const std::string& tool,
                             obs::json::Value results) {
  if (opts.json_path.empty()) {
    return;
  }
  obs::json::Value report = obs::MakeRunReport(tool);
  obs::json::Value o = obs::json::Value::MakeObject();
  o.Set("full", opts.full);
  o.Set("iterations", opts.iterations);
  o.Set("meter_stride", opts.meter_stride);
  report.Set("options", std::move(o));
  report.Set("results", std::move(results));
  if (!obs::WriteReportFile(report, opts.json_path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", opts.json_path.c_str());
  } else {
    std::printf("\nwrote report %s\n", opts.json_path.c_str());
  }
}

}  // namespace biosim::bench

#endif  // BIOSIM_BENCH_COMMON_H_
