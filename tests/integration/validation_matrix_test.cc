// Knob-matrix oracle for the one validation point (Simulation::Validate,
// docs/determinism.md "Valid combinations"). Every combination of
//
//   boundary {clamp, open, torus} x environment {grid, kd-tree, null}
//   x mechanics backend {cpu, gpu v0..v4} x shards {0, 2}
//
// is either rejected before its first step with std::invalid_argument
// naming both knobs of the broken rule, or it runs and meets its parity row
// (app/parity.h) against the unsharded CPU uniform grid with the same
// boundary. Every combination the INI can express (the runner wires the
// grid beside the CPU backend and the null environment beside the GPU) must
// fail through BuildSimulation with the very message the C++ API gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/config.h"
#include "app/parity.h"
#include "app/runner.h"
#include "core/simulation.h"
#include "gpu/gpu_mechanical_op.h"
#include "spatial/kd_tree.h"
#include "spatial/null_environment.h"

namespace biosim {
namespace {

enum class Env { kGrid, kKdTree, kNull };

struct Combo {
  BoundaryMode boundary = BoundaryMode::kClamp;
  Env env = Env::kGrid;
  int gpu_version = -1;  // -1 = the CPU backend
  uint32_t shards = 0;
};

const char* BoundaryName(BoundaryMode b) {
  switch (b) {
    case BoundaryMode::kClamp:
      return "clamp";
    case BoundaryMode::kOpen:
      return "open";
    case BoundaryMode::kTorus:
      return "torus";
  }
  return "?";
}

const char* EnvName(Env e) {
  switch (e) {
    case Env::kGrid:
      return "uniform-grid";
    case Env::kKdTree:
      return "kd-tree";
    case Env::kNull:
      return "null";
  }
  return "?";
}

std::string Describe(const Combo& c) {
  return std::string("boundary=") + BoundaryName(c.boundary) +
         " env=" + EnvName(c.env) + " backend=" +
         (c.gpu_version < 0 ? std::string("cpu")
                            : "gpu_v" + std::to_string(c.gpu_version)) +
         " shards=" + std::to_string(c.shards);
}

/// The policy, restated independently of Simulation::Validate: the two knob
/// names a rejection must carry, or nothing when the combination is valid.
std::optional<std::pair<std::string, std::string>> ExpectedRejection(
    const Combo& c) {
  const std::string env = std::string("environment '") + EnvName(c.env) + "'";
  const bool gpu = c.gpu_version >= 0;
  if (c.shards > 0 && gpu) {
    return std::make_pair("num_shards", "mechanics backend 'gpu'");
  }
  if (c.shards > 0 && c.env != Env::kGrid) {
    return std::make_pair(std::string("num_shards"), env);
  }
  if (c.boundary == BoundaryMode::kTorus && gpu) {
    return std::make_pair("boundary_mode=torus", "mechanics backend 'gpu'");
  }
  if (c.boundary == BoundaryMode::kTorus && c.env != Env::kGrid) {
    return std::make_pair(std::string("boundary_mode=torus"), env);
  }
  if (!gpu && c.env == Env::kNull) {
    return std::make_pair(std::string("mechanics backend 'cpu'"), env);
  }
  return std::nullopt;
}

// The parity scenario, scaled to a matrix of 108 runs.
constexpr size_t kAgents = 200;
constexpr double kSpace = 50.0;
constexpr double kDiameter = 10.0;
constexpr uint64_t kSeed = 77;
constexpr uint64_t kSteps = 3;

std::unique_ptr<Simulation> MakeSim(const Combo& c) {
  Param param;
  param.random_seed = kSeed;
  param.min_bound = 0.0;
  param.max_bound = kSpace;
  param.boundary_mode = c.boundary;
  param.num_shards = c.shards;
  auto sim = std::make_unique<Simulation>(param);
  sim->CreateRandomCells(kAgents, kDiameter);
  if (c.env == Env::kKdTree) {
    sim->SetEnvironment(std::make_unique<KdTreeEnvironment>());
  } else if (c.env == Env::kNull) {
    sim->SetEnvironment(std::make_unique<NullEnvironment>());
  }
  if (c.gpu_version >= 0) {
    sim->SetMechanicsBackend(std::make_unique<gpu::GpuMechanicalOp>(
        gpu::GpuMechanicsOptions::Version(c.gpu_version)));
  }
  return sim;
}

struct Outcome {
  std::string error;  // empty = ran
  std::vector<uint64_t> hashes;
  std::map<AgentUid, Double3> final_positions;
};

Outcome RunApi(const Combo& c) {
  auto sim = MakeSim(c);
  const uint64_t before = sim->StateHash();
  Outcome out;
  for (uint64_t s = 0; s < kSteps; ++s) {
    try {
      sim->Simulate(1);
    } catch (const std::invalid_argument& e) {
      out.error = e.what();
      // Rejected at Simulate() entry: nothing ran.
      EXPECT_EQ(s, 0u) << Describe(c);
      EXPECT_EQ(sim->StateHash(), before) << Describe(c);
      return out;
    }
    out.hashes.push_back(sim->StateHash());
  }
  const ResourceManager& rm = sim->rm();
  for (size_t i = 0; i < rm.size(); ++i) {
    out.final_positions[rm.uids()[i]] = rm.positions()[i];
  }
  return out;
}

double MaxAbsDelta(const Outcome& ref, const Outcome& other) {
  if (other.final_positions.size() != ref.final_positions.size()) {
    return INFINITY;
  }
  double max_delta = 0.0;
  for (const auto& [uid, want] : ref.final_positions) {
    auto it = other.final_positions.find(uid);
    if (it == other.final_positions.end()) {
      return INFINITY;
    }
    max_delta = std::max({max_delta, std::fabs(it->second.x - want.x),
                          std::fabs(it->second.y - want.y),
                          std::fabs(it->second.z - want.z)});
  }
  return max_delta;
}

/// The INI text for `c`, or nothing when the INI cannot express it (the
/// runner wires only grid + CPU and null + GPU).
std::optional<std::string> IniFor(const Combo& c) {
  const bool gpu = c.gpu_version >= 0;
  if (c.env != (gpu ? Env::kNull : Env::kGrid)) {
    return std::nullopt;
  }
  return std::string("[simulation]\nsteps = 3\nseed = 77\nboundary = ") +
         BoundaryName(c.boundary) + "\nshards = " + std::to_string(c.shards) +
         "\n[model]\ntype = random_cloud\nagents = 200\ndensity = 4\n"
         "diameter = 10\n"
         "[backend]\ntype = " +
         (gpu ? "gpu\ngpu_version = " + std::to_string(c.gpu_version) + "\n"
              : std::string("cpu\n"));
}

std::string BuildError(const std::string& ini) {
  try {
    app::BuildSimulation(app::ParseConfigString(ini));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::vector<Combo> AllCombos() {
  std::vector<Combo> combos;
  for (BoundaryMode b :
       {BoundaryMode::kClamp, BoundaryMode::kOpen, BoundaryMode::kTorus}) {
    for (Env e : {Env::kGrid, Env::kKdTree, Env::kNull}) {
      for (int v = -1; v <= 4; ++v) {
        for (uint32_t k : {0u, 2u}) {
          combos.push_back({b, e, v, k});
        }
      }
    }
  }
  return combos;
}

TEST(ValidationMatrixTest, EveryCombinationIsRejectedOrMeetsItsParityRow) {
  std::map<BoundaryMode, Outcome> reference;
  for (BoundaryMode b :
       {BoundaryMode::kClamp, BoundaryMode::kOpen, BoundaryMode::kTorus}) {
    reference[b] = RunApi({b, Env::kGrid, -1, 0});
    ASSERT_TRUE(reference[b].error.empty()) << reference[b].error;
  }
  // The valid-combinations table of docs/determinism.md, printed from the
  // expectations (ctest -R ValidationMatrix -V shows it).
  std::string table = "| boundary | environment | backend | shards | owed |\n";
  size_t accepted = 0;
  for (const Combo& c : AllCombos()) {
    SCOPED_TRACE(Describe(c));
    const Outcome got = RunApi(c);
    const auto rejection = ExpectedRejection(c);
    if (rejection) {
      ASSERT_FALSE(got.error.empty()) << "accepted an invalid combination";
      EXPECT_NE(got.error.find(rejection->first), std::string::npos)
          << got.error;
      EXPECT_NE(got.error.find(rejection->second), std::string::npos)
          << got.error;
      continue;
    }
    ASSERT_TRUE(got.error.empty()) << got.error;
    ++accepted;
    const Outcome& ref = reference[c.boundary];
    std::string owed;
    if (c.gpu_version < 0 && c.env == Env::kGrid) {
      owed = "bitwise";
      EXPECT_EQ(got.hashes, ref.hashes);
    } else {
      const double tol = c.gpu_version < 0    ? app::kKdTreeTol
                         : c.gpu_version == 0 ? app::kGpuFp64Tol
                                              : app::kGpuFp32Tol;
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.0e", tol);
      owed = buf;
      EXPECT_LE(MaxAbsDelta(ref, got), tol);
    }
    table += std::string("| ") + BoundaryName(c.boundary) + " | " +
             EnvName(c.env) + " | " +
             (c.gpu_version < 0 ? std::string("cpu")
                                : "gpu v" + std::to_string(c.gpu_version)) +
             " | " + std::to_string(c.shards) + " | " + owed + " |\n";
  }
  // 3 sharded grid runs, 5 unsharded CPU runs, and the GPU ladder beside
  // every environment in clamped and open space.
  EXPECT_EQ(accepted, 3u + 5u + 2u * 3u * 5u);
  std::printf("%s", table.c_str());
}

TEST(ValidationMatrixTest, IniRowsGiveTheApiMessages) {
  size_t ini_rows = 0;
  for (const Combo& c : AllCombos()) {
    const auto ini = IniFor(c);
    if (!ini) {
      continue;
    }
    ++ini_rows;
    SCOPED_TRACE(Describe(c));
    std::string api_error;
    try {
      MakeSim(c)->Validate();
    } catch (const std::invalid_argument& e) {
      api_error = e.what();
    }
    EXPECT_EQ(BuildError(*ini), api_error);
    EXPECT_EQ(api_error.empty(), !ExpectedRejection(c).has_value());
  }
  // boundary x {cpu, gpu v0..v4} x shards.
  EXPECT_EQ(ini_rows, 3u * 6u * 2u);
}

TEST(ValidationMatrixTest, MeasuredDefectsAreRejected) {
  // Each of these used to run silently (or fail only inside a step).
  const Combo defects[] = {
      // CPU forces over the null environment computed zero forces.
      {BoundaryMode::kClamp, Env::kNull, -1, 0},
      // Sharded runs ignored the kd-tree and ran the grid.
      {BoundaryMode::kClamp, Env::kKdTree, -1, 2},
      // ... and accepted torus beside it.
      {BoundaryMode::kTorus, Env::kKdTree, -1, 2},
      // Torus + GPU failed only inside the first GPU step.
      {BoundaryMode::kTorus, Env::kNull, 2, 0},
  };
  for (const Combo& c : defects) {
    EXPECT_FALSE(RunApi(c).error.empty()) << Describe(c);
  }
}

TEST(ValidationMatrixTest, CpuBackendBesideNullEnvironmentIsRejected) {
  // Two overlapping cells: the grid pushes them apart; the null
  // environment used to leave them in place without a word.
  auto make = [](bool null_env) {
    Param param;
    param.max_bound = 200.0;
    auto sim = std::make_unique<Simulation>(param);
    sim->AddCell({100.0, 100.0, 100.0}, 10.0);
    sim->AddCell({104.0, 100.0, 100.0}, 10.0);
    if (null_env) {
      sim->SetEnvironment(std::make_unique<NullEnvironment>());
    }
    return sim;
  };
  auto grid = make(false);
  grid->Simulate(1);
  EXPECT_LT(grid->rm().positions()[0].x, 100.0);
  EXPECT_GT(grid->rm().positions()[1].x, 104.0);

  auto null = make(true);
  try {
    null->Simulate(1);
    FAIL() << "ran CPU forces over the null environment";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mechanics backend 'cpu'"),
              std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("environment 'null'"),
              std::string::npos) << e.what();
  }
  EXPECT_EQ(null->rm().positions()[0].x, 100.0);
}

TEST(ValidationMatrixTest, NullEnvironmentQueryThrowsInEveryBuildType) {
  ResourceManager rm;
  NewAgentSpec spec;
  spec.diameter = 10.0;
  rm.AddAgent(std::move(spec));
  NullEnvironment env;
  env.Update(rm, Param{}, ExecMode::kSerial);
  EXPECT_THROW(
      env.ForEachNeighborWithinRadius(0, rm, 10.0, [](AgentIndex, double) {}),
      std::logic_error);
}

TEST(ValidationMatrixTest, ParamChangedAfterConstructionIsRevalidated) {
  Simulation sim{Param{}};
  sim.CreateRandomCells(10, 10.0);
  sim.Simulate(1);
  sim.param().simulation_time_step = -1.0;
  try {
    sim.Simulate(1);
    FAIL() << "stepped with a negative timestep";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("simulation_time_step"),
              std::string::npos) << e.what();
  }
  EXPECT_EQ(sim.step(), 1u);
  // A wiring change between calls is checked the same way.
  sim.param().simulation_time_step = 0.01;
  sim.param().num_shards = 2;
  sim.SetEnvironment(std::make_unique<KdTreeEnvironment>());
  EXPECT_THROW(sim.Simulate(1), std::invalid_argument);
  EXPECT_EQ(sim.step(), 1u);
}

}  // namespace
}  // namespace biosim
