#include "core/simulation.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/analysis.h"
#include "core/behaviors/grow_divide.h"
#include "core/cell.h"
#include "core/sim_context.h"
#include "core/state_hash.h"
#include "core/timer.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "spatial/uniform_grid.h"

// One instrument per pipeline stage: a trace span, a hardware-counter scope
// and a Fig. 3 profile sample, opened under one name in this fixed order,
// so the trace, perf and profile views always cover the same stages. Used
// inside Simulation members (it reads profile_).
#define STAGE_SCOPE(name)                                           \
  TRACE_SCOPE(name);                                                \
  PERF_SCOPE(name);                                                 \
  ::biosim::ScopedTimer BIOSIM_TRACE_CONCAT(stage_timer_, __LINE__)( \
      profile_.Hist(name))

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
  // independent (each agent's RNG stream is keyed by uid and step). Chunked
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
      for (const auto& b : rm_.behaviors_of(i)) {
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

namespace {

// TraceScope keeps the name pointer, so per-shard track names must be
// literals with static storage; shards beyond the table share the last name
// (display-only — the simulation itself has no shard-count limit).
const char* ShardTraceName(size_t k) {
  static constexpr const char* kNames[] = {
      "shard 0 behaviors",  "shard 1 behaviors",  "shard 2 behaviors",
      "shard 3 behaviors",  "shard 4 behaviors",  "shard 5 behaviors",
      "shard 6 behaviors",  "shard 7 behaviors",  "shard 8 behaviors",
      "shard 9 behaviors",  "shard 10 behaviors", "shard 11 behaviors",
      "shard 12 behaviors", "shard 13 behaviors", "shard 14 behaviors",
      "shard 15+ behaviors"};
  constexpr size_t kLast = sizeof(kNames) / sizeof(kNames[0]) - 1;
  return kNames[k < kLast ? k : kLast];
}

}  // namespace

void Simulation::RunBehaviorsSharded() {
  const uint32_t num_shards = shard_runtime_->shards();

  // A deposit tagged with the row that emitted it. Owned rows are disjoint
  // across shards and each shard walks its rows ascending, so a global
  // stable sort on the row reconstructs the exact apply sequence of the
  // unsharded pass: ascending agent row, behavior order within a row
  // (docs/determinism.md, docs/sharding.md).
  struct TaggedDeposit {
    int32_t row;
    PendingDeposit deposit;
  };
  Mutex deposit_mutex;
  std::vector<TaggedDeposit> tagged;

  BIOSIM_SHARD_SCOPE_BEGIN();
  ParallelFor(mode_, num_shards, [&](size_t k) {
    TRACE_SCOPE(ShardTraceName(k));
    SimContext ctx(param_, rm_, step_);
    ctx.diffusion_grid = diffusion_grid();
    ctx.diffusion_grids = &diffusion_grids_;
    std::vector<PendingDeposit> sink;
    ctx.deposit_sink = &sink;
    std::vector<TaggedDeposit> local;
    for (int32_t row : shard_runtime_->owned_rows(static_cast<uint32_t>(k))) {
      const auto i = static_cast<size_t>(row);
      if (rm_.behaviors_of(i).empty()) {
        continue;
      }
      const size_t mark = sink.size();
      Cell cell(rm_, i);
      for (const auto& b : rm_.behaviors_of(i)) {
        b->Run(cell, ctx);
      }
      for (size_t d = mark; d < sink.size(); ++d) {
        local.push_back({row, sink[d]});
      }
    }
    if (!local.empty()) {
      MutexLock lock(deposit_mutex);
      tagged.insert(tagged.end(), local.begin(), local.end());
    }
  });
  BIOSIM_SHARD_SCOPE_END();

  if (!tagged.empty()) {
    std::stable_sort(tagged.begin(), tagged.end(),
                     [](const TaggedDeposit& a, const TaggedDeposit& b) {
                       return a.row < b.row;
                     });
    for (const TaggedDeposit& t : tagged) {
      // Row-ordered serial merge — the sharded twin of RunBehaviors' chunk
      // merge, same sanctioned raw-write site (docs/determinism.md).
      t.deposit.grid->IncreaseConcentrationBy(t.deposit.position, t.deposit.amount);  // biosim-lint: allow(direct-deposit)
    }
  }
}

void Simulation::RunShardedOps() {
  if (rm_.empty()) {
    return;
  }
  {
    // Partition B: commit / z-order may have moved, added or permuted
    // rows; ownership and the halo protocol need the post-commit
    // positions.
    STAGE_SCOPE("partition");
    shard_runtime_->Repartition(rm_, param_);
  }
  {
    STAGE_SCOPE("halo exchange");
    shard_runtime_->ExchangeHalos(rm_, mode_);
  }
  {
    // The sharded counterpart of "neighborhood update": per-shard
    // occupancy-compacted CSRs instead of the one global grid.
    STAGE_SCOPE("shard grids");
    shard_runtime_->UpdateGrids(rm_, mode_);
  }
  STAGE_SCOPE("mechanical forces");
  // Validate() admits shards only beside a backend that supports them; the
  // sharded force pass drives the CPU backend's fused CSR kernel directly.
  MechanicalForcesOp& op =
      dynamic_cast<CpuMechanicsBackend&>(*backend_).mutable_op();
  op.ComputeDisplacementsSharded(
      rm_, shard_runtime_->ForceInputs(),
      shard_runtime_->geometry().interaction_radius,
      shard_runtime_->geometry().box_length, param_, mode_);
  op.ApplyDisplacements(rm_, param_, mode_);
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
  require(!sharded || backend_->supports_shards(), "num_shards > 0", true);
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
  const bool sharded = param_.num_shards > 0;
  if (sharded &&
      (!shard_runtime_ || shard_runtime_->shards() != param_.num_shards)) {
    shard_runtime_ = std::make_unique<ShardRuntime>(param_.num_shards,
                                                    param_.shard_balance);
  }
  for (uint64_t s = 0; s < steps; ++s) {
    TRACE_SCOPE("step");
    const bool have_agents = !rm_.empty();
    if (sharded && have_agents) {
      // Partition A: ownership for the behaviors pass, derived from the
      // positions the behaviors will read.
      STAGE_SCOPE("partition");
      shard_runtime_->Repartition(rm_, param_);
    }
    {
      STAGE_SCOPE("cell behaviors");
      if (!sharded) {
        RunBehaviors();
      } else if (have_agents) {
        RunBehaviorsSharded();
      }
    }
    {
      STAGE_SCOPE("commit");
      rm_.CommitStructuralChanges();
    }
    if (sharded) {
      RunShardedOps();
    } else {
      {
        STAGE_SCOPE("neighborhood update");
        env_->Update(rm_, param_, mode_);
      }
      STAGE_SCOPE("mechanical forces");
      backend_->Step(rm_, *env_, param_, mode_, &profile_);
    }
    if (!diffusion_grids_.empty()) {
      STAGE_SCOPE("diffusion");
      for (auto& g : diffusion_grids_) {
        g->Step(param_.simulation_time_step, mode_);
      }
    }
    ++step_;
  }
}

}  // namespace biosim
