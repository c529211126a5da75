// Run configuration: a small INI-style format driving the biosim_run tool.
//
//   [simulation]
//   steps = 100
//   seed = 42
//   max_bound = 1000
//   timestep = 0.01
//   boundary = clamp              ; clamp | torus | open
//   threads = 0                   ; CPU workers; 0 = hardware concurrency
//   cpu_fast_path = true          ; fused CSR force kernel (docs/perf.md)
//   simd = false                  ; vectorize the fused kernel (docs/perf.md)
//   zorder_every = 0              ; re-sort agents into Z-order every N steps
//   shards = 0                    ; spatial domain shards (docs/sharding.md); 0=off
//   shard_balance = static        ; static | adaptive plane-range sizing
//
//   [model]
//   type = cell_division          ; cell_division | random_cloud
//   cells_per_dim = 16            ; cell_division
//   agents = 10000                ; random_cloud
//   density = 27                  ; random_cloud (sizes the space)
//   diameter = 8
//   divide_threshold = 16
//   growth_rate = 40000
//   substance_resolution = 0      ; attach an "oxygen" grid with res^3 voxels (0=off)
//   substance_diffusion = 50      ; D in µm²/h
//   substance_decay = 0           ; mu in 1/h
//   secretion_rate = 0            ; per-agent Secretion("oxygen", rate); 0=off
//
//   [backend]
//   type = cpu                    ; cpu | gpu
//   gpu_version = 2               ; 0..4
//   gpu_device = 1080ti           ; 1080ti | v100
//   meter_stride = 8
//   parallel_blocks = false       ; host-parallel block execution (exact)
//   sanitize = false              ; GPU sanitizer (racecheck/memcheck/synccheck)
//   racy_grid_build = false       ; diagnostic: seed a known racy kernel
//
//   [output]
//   timeseries = out.csv
//   vtk = final.vtk
//   csv = final.csv
//   checkpoint = final.ckpt
//   trace = trace.json            ; Chrome/Perfetto trace of the run
//   metrics = metrics.jsonl       ; per-step metrics snapshots (JSON lines)
//   metrics_every = 1             ; snapshot cadence in steps
//   report = report.json          ; machine-readable run report
//   perf_counters = false         ; per-op hardware counters in the report
//   flight_recorder = crash.json  ; postmortem ring dump destination
//   flight_recorder_depth = 64    ; last-N steps kept in the ring
//   progress = 0                  ; stderr heartbeat every N seconds (0=off)
//
// Lines starting with '#' or ';' are comments; keys are section-scoped.
// Unknown sections/keys are errors (typos should not be silent).
#ifndef BIOSIM_APP_CONFIG_H_
#define BIOSIM_APP_CONFIG_H_

#include <cstdint>
#include <string>

namespace biosim::app {

struct RunConfig {
  // [simulation]
  uint64_t steps = 10;
  uint64_t seed = 42;
  double max_bound = 1000.0;
  double timestep = 0.01;
  double max_displacement = 3.0;
  std::string boundary = "clamp";  // clamp | torus | open
  /// CPU worker threads for parallel engine operations; 0 = hardware
  /// concurrency. Overridable via --threads and the BIOSIM_THREADS env var
  /// (the CI determinism sweep varies this; results must not depend on it).
  uint32_t num_threads = 0;
  /// Fused CSR force kernel on the uniform-grid CPU path (docs/perf.md);
  /// bitwise-identical to the generic callback path, so disabling it only
  /// trades speed. Ignored by the GPU backend.
  bool cpu_fast_path = true;
  /// Vectorize the fused force kernel (docs/perf.md). Opt-in: the vector
  /// kernel FMA-contracts the distance computation, so results are only
  /// tolerance-equal to the scalar reference (cpu_simd parity row), though
  /// still bitwise reproducible run-to-run, across thread counts and
  /// across vector widths. Requires cpu_fast_path; CPU backend only.
  bool simd = false;
  /// Re-sort agents into Z-order every N steps on the CPU pipeline
  /// (0 = never). Cache-locality knob; permutes rows uid-stably.
  uint64_t zorder_every = 0;
  /// Spatial domain shards along the grid's z-planes (Param::num_shards,
  /// docs/sharding.md). 0 disables. StateHash is bitwise-identical for any
  /// shard count (the CI shard sweep enforces it). CPU backend only;
  /// requires cpu_fast_path.
  uint32_t shards = 0;
  /// Plane-range sizing when shards > 0: "static" (equal plane counts) or
  /// "adaptive" (greedy split over the per-plane agent histogram).
  std::string shard_balance = "static";

  // [model]
  std::string model_type = "cell_division";
  size_t cells_per_dim = 8;       // cell_division
  size_t agents = 10000;          // random_cloud
  double density = 27.0;          // random_cloud
  double diameter = 8.0;
  double divide_threshold = 16.0;
  double growth_rate = 40000.0;
  /// Attach one "oxygen" DiffusionGrid with this resolution per axis
  /// (0 disables — the historical default: no substances).
  size_t substance_resolution = 0;
  /// Diffusion coefficient D (µm²/h) of the attached substance.
  double substance_diffusion = 50.0;
  /// Decay constant mu (1/h) of the attached substance.
  double substance_decay = 0.0;
  /// If nonzero, attach Secretion("oxygen", rate) to every initial agent
  /// (concentration units per hour; negative = consumption). Requires
  /// substance_resolution > 0.
  double secretion_rate = 0.0;

  // [backend]
  std::string backend_type = "cpu";
  int gpu_version = 2;
  std::string gpu_device = "1080ti";
  int meter_stride = 8;
  /// Execute the blocks of block-independent kernels in parallel on the
  /// host; counters stay byte-identical to the serial engine (see
  /// GpuMechanicsOptions::parallel_blocks).
  bool parallel_blocks = false;
  /// Run every GPU launch under the compute-sanitizer-style analysis layer
  /// (gpusim/sanitizer.h); biosim_run exits non-zero if hazards are found.
  bool sanitize = false;
  /// Diagnostic: build the uniform grid with the deliberately racy kernel
  /// variant so a sanitized run has something to find (sanitizer
  /// validation; see GpuMechanicsOptions::racy_grid_build).
  bool racy_grid_build = false;

  // [output]
  std::string timeseries_path;
  std::string vtk_path;
  std::string csv_path;
  std::string checkpoint_path;
  /// Chrome-trace-event JSON timeline (host spans + virtual GPU tracks);
  /// empty disables tracing entirely (zero hot-loop overhead).
  std::string trace_path;
  /// JSON-lines file of per-step metrics snapshots; empty disables.
  std::string metrics_path;
  /// Snapshot cadence: write a metrics line every N steps (and always after
  /// the final step). Must be >= 1.
  uint64_t metrics_every = 1;
  /// Versioned machine-readable run report (obs/report.h); empty disables.
  std::string report_path;
  /// Sample per-op hardware counters (obs/perf_counters.h) and add the
  /// "perf_counters" + "roofline" report sections. Off by default (the
  /// hot loop keeps PERF_SCOPE on its nullptr fast path); degrades to
  /// `available: false` where perf_event_open is forbidden.
  bool perf_counters = false;
  /// Crash flight recorder (obs/flight_recorder.h): dump the last-N-step
  /// ring to this path on SIGSEGV/SIGABRT/SIGBUS or on a determinism
  /// divergence. Empty disables (no handlers installed).
  std::string flight_recorder_path;
  /// Ring capacity in steps for the flight recorder.
  uint64_t flight_recorder_depth = 64;
  /// Print a heartbeat (step, steps/s, ETA, StateHash prefix) to stderr
  /// every N seconds. 0 disables. Fractional seconds allowed (tests).
  double progress_seconds = 0.0;

  /// Throw std::invalid_argument on out-of-range values.
  void Validate() const;
};

/// Parse from file / from text. Throw std::runtime_error with a line-number
/// message on syntax errors or unknown keys.
RunConfig ParseConfigFile(const std::string& path);
RunConfig ParseConfigString(const std::string& text);

}  // namespace biosim::app

#endif  // BIOSIM_APP_CONFIG_H_
