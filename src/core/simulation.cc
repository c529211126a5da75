#include "core/simulation.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
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

namespace {

/// Reserves `added` more agents, or throws naming `arg` if the population
/// would pass the 2^31-1 the grid's int32 CSR offsets address (which
/// UniformGridEnvironment only checks at its first Update).
void ReserveAgents(ResourceManager& rm, const char* arg, size_t value,
                   size_t added) {
  constexpr size_t kMaxAgents = std::numeric_limits<int32_t>::max();
  if (added > kMaxAgents - std::min(rm.size(), kMaxAgents)) {
    throw std::invalid_argument(
        std::string(arg) + " " + std::to_string(value) +
        " would grow the population of " + std::to_string(rm.size()) +
        " past the 2^31-1 agents the grid can address");
  }
  rm.Reserve(rm.size() + added);
}

}  // namespace

void Simulation::Create3DCellGrid(size_t cells_per_dim, double spacing,
                                  double diameter, double divide_threshold,
                                  double growth_rate) {
  // Saturates instead of wrapping: a cube past 2^63 is oversized anyway.
  const size_t cells = cells_per_dim < (size_t{1} << 21)
                           ? cells_per_dim * cells_per_dim * cells_per_dim
                           : SIZE_MAX;
  ReserveAgents(rm_, "Create3DCellGrid: cells_per_dim", cells_per_dim, cells);
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
  ReserveAgents(rm_, "CreateRandomCells: count", count, count);
  // Each call gets its own seed-derived stream; a second fill used to reuse
  // the first call's stream and stack every new cell onto an existing one.
  // Call 0 keeps the historical positions byte-identical.
  const uint64_t call = random_cells_calls_++;
  Random rng(call == 0 ? param_.random_seed
                       : SplitMix64::Mix(param_.random_seed + call));
  for (size_t i = 0; i < count; ++i) {
    AddCell(rng.UniformInCube(param_.min_bound, param_.max_bound), diameter);
  }
}

void Simulation::RunBehaviors() {
  // A behavior writes only its own row and appends every other effect to
  // its chunk's buffer, so the chunks share no mutable state and the
  // sharded step runs this same pass: ownership is irrelevant here. Each
  // agent's RNG stream is keyed by uid and step, and chunks are contiguous
  // ascending row ranges, so reading the buffers in chunk order yields the
  // global row order at any worker count (docs/determinism.md). One trace
  // span per chunk gives the timeline its per-worker tracks.
  const size_t n = rm_.size();
  const size_t chunks = mode_ == ExecMode::kParallel ? HardwareThreads() : 1;
  effects_.resize(chunks);
  DiffusionGrid* default_grid = diffusion_grid();
  ParallelFor(mode_, chunks, [&](size_t c) {
    const size_t begin = n * c / chunks;
    const size_t end = n * (c + 1) / chunks;
    if (begin == end) {
      return;
    }
    TRACE_SCOPE("behaviors chunk");
    SimContext ctx(param_, rm_, step_, effects_[c]);
    ctx.diffusion_grid = default_grid;
    ctx.diffusion_grids = &diffusion_grids_;
    for (size_t i = begin; i < end; ++i) {
      if (rm_.behaviors_of(i).empty()) {
        continue;
      }
      Cell cell(rm_, i);
      for (const Behavior* b : rm_.behaviors_of(i)) {
        b->Run(cell, ctx);
      }
    }
  });

  for (BehaviorEffects& effects : effects_) {
    for (const PendingDeposit& d : effects.deposits) {
      // The serial chunk-ordered merge, the one sanctioned raw-write site
      // (docs/determinism.md). Each grid receives its own deposits in
      // global agent-index order: a subsequence of an ordered stream stays
      // ordered.
      d.grid->IncreaseConcentrationBy(d.position, d.amount);  // biosim-lint: allow(direct-deposit)
    }
    effects.deposits.clear();
  }
}

void Simulation::CommitBehaviorEffects() {
  std::vector<AgentIndex> removals;
  std::vector<NewAgentSpec> births;
  for (BehaviorEffects& effects : effects_) {
    removals.insert(removals.end(), effects.removals.begin(),
                    effects.removals.end());
    births.insert(births.end(), std::make_move_iterator(effects.births.begin()),
                  std::make_move_iterator(effects.births.end()));
    effects.removals.clear();
    effects.births.clear();
  }
  rm_.CommitStructuralChanges(std::move(removals), std::move(births));
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
      CommitBehaviorEffects();
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
