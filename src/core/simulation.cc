#include "core/simulation.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/analysis.h"
#include "core/behaviors/grow_divide.h"
#include "core/cell.h"
#include "core/sim_context.h"
#include "core/state_hash.h"
#include "obs/stage_scope.h"
#include "obs/trace.h"
#include "spatial/uniform_grid.h"

namespace biosim {

// Defined here rather than in a sim_context.cc so the engine layer (which
// already links biosim_diffusion) owns the dependency on DiffusionGrid.
void SimContext::DepositSubstance(const Double3& pos, double amount) {
  DepositSubstance(pos, amount, diffusion_grid);
}

void SimContext::DepositSubstance(const Double3& pos, double amount,
                                  DiffusionGrid* grid) {
  if (grid == nullptr) {
    return;
  }
  if (deposit_sink != nullptr) {
    deposit_sink->push_back({pos, amount, grid});
    return;
  }
  // Direct-apply fallback for serial use without an installed sink; this is
  // one of the two sanctioned call sites of the raw field write.
  grid->IncreaseConcentrationBy(pos, amount);  // biosim-lint: allow(direct-deposit)
}

DiffusionGrid* SimContext::FindSubstance(const std::string& name) const {
  if (diffusion_grids == nullptr) {
    return nullptr;
  }
  for (const auto& g : *diffusion_grids) {
    if (g->substance_name() == name) {
      return g.get();
    }
  }
  return nullptr;
}

Simulation::Simulation(Param param)
    : param_(param),
      env_(std::make_unique<UniformGridEnvironment>()),
      backend_(std::make_unique<CpuMechanicsBackend>()) {
  param_.Validate();
  SetNumThreads(param_.num_threads);
}

Simulation::~Simulation() = default;

void Simulation::SetEnvironment(std::unique_ptr<Environment> env) {
  env_ = std::move(env);
}

void Simulation::SetMechanicsBackend(std::unique_ptr<MechanicsBackend> backend) {
  backend_ = std::move(backend);
}

void Simulation::AddDiffusionGrid(std::unique_ptr<DiffusionGrid> grid) {
  diffusion_grids_.push_back(std::move(grid));
}

DiffusionGrid* Simulation::diffusion_grid() {
  return diffusion_grids_.empty() ? nullptr : diffusion_grids_.front().get();
}

DiffusionGrid* Simulation::diffusion_grid(const std::string& substance) {
  for (auto& g : diffusion_grids_) {
    if (g->substance_name() == substance) {
      return g.get();
    }
  }
  return nullptr;
}

AgentIndex Simulation::AddCell(const Double3& position, double diameter) {
  NewAgentSpec spec;
  spec.position = position;
  spec.diameter = diameter;
  spec.adherence = param_.default_adherence;
  spec.density = param_.default_density;
  return rm_.AddAgent(std::move(spec));
}

void Simulation::Create3DCellGrid(size_t cells_per_dim, double spacing,
                                  double diameter, double divide_threshold,
                                  double growth_rate) {
  rm_.Reserve(rm_.size() + cells_per_dim * cells_per_dim * cells_per_dim);
  for (size_t x = 0; x < cells_per_dim; ++x) {
    for (size_t y = 0; y < cells_per_dim; ++y) {
      for (size_t z = 0; z < cells_per_dim; ++z) {
        Double3 pos{param_.min_bound + (static_cast<double>(x) + 0.5) * spacing,
                    param_.min_bound + (static_cast<double>(y) + 0.5) * spacing,
                    param_.min_bound + (static_cast<double>(z) + 0.5) * spacing};
        AgentIndex idx = AddCell(pos, diameter);
        rm_.AttachBehavior(
            idx, std::make_unique<GrowDivide>(divide_threshold, growth_rate));
      }
    }
  }
}

void Simulation::CreateRandomCells(size_t count, double diameter) {
  // Each call gets its own seed-derived stream; a second fill used to reuse
  // the first call's stream and stack every new cell onto an existing one.
  // Call 0 keeps the historical positions byte-identical.
  const uint64_t call = random_cells_calls_++;
  Random rng(call == 0 ? param_.random_seed
                       : SplitMix64::Mix(param_.random_seed + call));
  rm_.Reserve(rm_.size() + count);
  for (size_t i = 0; i < count; ++i) {
    AddCell(rng.UniformInCube(param_.min_bound, param_.max_bound), diameter);
  }
}

void Simulation::RunBehaviors() {
  size_t n = rm_.size();

  // Deferred structural changes make parallel execution safe; the commit
  // phase re-sorts them by mother row, so the outcome is thread-count
  // independent (each agent's RNG stream is keyed by uid and step). A
  // behavior reads only its own row and buffers every global effect, so the
  // sharded step runs this same pass: ownership is irrelevant here. Chunked
  // so each worker emits one trace span covering its contiguous range —
  // the per-worker tracks in the timeline come from here.
  //
  // Substance deposits are buffered per chunk and applied below in chunk
  // order. Chunks are contiguous ascending agent ranges, so the merged
  // sequence is the global agent-index order no matter how many workers ran
  // — the concentration field receives the same FP additions in the same
  // order at any thread count (docs/determinism.md).
  Mutex deposit_mutex;
  std::vector<std::pair<size_t, std::vector<PendingDeposit>>> deposit_chunks;
  ParallelForChunks(mode_, n, [&](size_t begin, size_t end) {
    TRACE_SCOPE("behaviors chunk");
    SimContext ctx(param_, rm_, step_);
    ctx.diffusion_grid = diffusion_grid();
    ctx.diffusion_grids = &diffusion_grids_;
    std::vector<PendingDeposit> deposits;
    ctx.deposit_sink = &deposits;
    for (size_t i = begin; i < end; ++i) {
      if (rm_.behaviors_of(i).empty()) {
        continue;
      }
      Cell cell(rm_, i);
      for (const Behavior* b : rm_.behaviors_of(i)) {
        b->Run(cell, ctx);
      }
    }
    if (!deposits.empty()) {
      MutexLock lock(deposit_mutex);
      deposit_chunks.emplace_back(begin, std::move(deposits));
    }
  });

  if (!deposit_chunks.empty()) {
    std::sort(deposit_chunks.begin(), deposit_chunks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [begin, deposits] : deposit_chunks) {
      (void)begin;
      for (const PendingDeposit& d : deposits) {
        // The serial chunk-ordered merge: the other sanctioned raw-write
        // site (docs/determinism.md). Each deposit carries its target grid
        // (the old code collapsed every substance into the first grid), and
        // each grid still receives its own deposits in global agent-index
        // order — a subsequence of an ordered stream stays ordered.
        d.grid->IncreaseConcentrationBy(d.position, d.amount);  // biosim-lint: allow(direct-deposit)
      }
    }
  }
}

uint64_t Simulation::StateHash() const {
  uint64_t h = HashBytes(&step_, sizeof(step_));
  h = HashPopulation(rm_, h);
  for (const auto& g : diffusion_grids_) {
    h = HashDoubles(g->raw(), h);
  }
  return h;
}

void Simulation::Validate() const {
  param_.Validate();
  // Each rule pairs a Param knob with a capability of the mechanics backend
  // or the environment; a broken rule names both.
  auto require = [this](bool ok, const char* knob, bool by_backend) {
    if (!ok) {
      throw std::invalid_argument(
          std::string("Simulation: ") + knob + " is not supported by " +
          (by_backend ? std::string("mechanics backend '") + backend_->name()
                      : std::string("environment '") + env_->name()) +
          "'");
    }
  };
  const bool sharded = param_.num_shards > 0;
  const bool torus = param_.boundary_mode == BoundaryMode::kTorus;
  // A sharded step hands the backend the shard runtime, which answers
  // through force windows and queries: a backend that reads no host
  // environment (the GPU builds its own grid) would ignore the shards.
  require(!sharded || backend_->needs_neighbor_queries(), "num_shards > 0",
          true);
  require(!sharded || env_->supports_shards(), "num_shards > 0", false);
  require(!torus || backend_->supports_torus(), "boundary_mode=torus", true);
  require(!torus || env_->supports_torus(), "boundary_mode=torus", false);
  if (backend_->needs_neighbor_queries() &&
      !env_->answers_neighbor_queries()) {
    throw std::invalid_argument(
        std::string("Simulation: mechanics backend '") + backend_->name() +
        "' needs neighbor queries, which environment '" + env_->name() +
        "' does not answer");
  }
}

void Simulation::Simulate(uint64_t steps) {
  Validate();
  if (param_.num_shards > 0 &&
      (!shard_runtime_ || shard_runtime_->shards() != param_.num_shards)) {
    shard_runtime_ = std::make_unique<ShardRuntime>(param_.num_shards,
                                                    param_.shard_balance);
  }
  // Validate() admits shards only beside an environment the shard runtime
  // can replace without changing results.
  Environment& nbr = param_.num_shards > 0 ? *shard_runtime_ : *env_;
  for (uint64_t s = 0; s < steps; ++s) {
    TRACE_SCOPE("step");
    {
      STAGE_SCOPE(&profile_, "cell behaviors");
      RunBehaviors();
    }
    {
      STAGE_SCOPE(&profile_, "commit");
      rm_.CommitStructuralChanges();
    }
    {
      STAGE_SCOPE(&profile_, "neighborhood update");
      nbr.Update(rm_, param_, mode_, &profile_);
    }
    {
      STAGE_SCOPE(&profile_, "mechanical forces");
      backend_->Step(rm_, nbr, param_, mode_, &profile_);
    }
    if (!diffusion_grids_.empty()) {
      STAGE_SCOPE(&profile_, "diffusion");
      for (auto& g : diffusion_grids_) {
        g->Step(param_.simulation_time_step, mode_);
      }
    }
    ++step_;
  }
}

}  // namespace biosim
