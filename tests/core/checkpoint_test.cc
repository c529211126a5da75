#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "../test_util.h"
#include "core/behaviors/grow_divide.h"
#include "core/simulation.h"

namespace biosim {
namespace {

using testutil::TempPath;

TEST(CheckpointTest, RoundTripPreservesEveryAttribute) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 137, 0.0, 90.0, 8.5, /*seed=*/4);
  rm.adherences()[3] = 0.77;
  rm.tractor_forces()[5] = {1.0, -2.0, 3.0};

  std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(rm, path));

  ResourceManager restored;
  ASSERT_TRUE(LoadCheckpoint(&restored, path));
  ASSERT_EQ(restored.size(), rm.size());
  EXPECT_EQ(restored.positions(), rm.positions());
  EXPECT_EQ(restored.diameters(), rm.diameters());
  EXPECT_EQ(restored.volumes(), rm.volumes());
  EXPECT_EQ(restored.adherences(), rm.adherences());
  EXPECT_EQ(restored.densities(), rm.densities());
  EXPECT_EQ(restored.tractor_forces(), rm.tractor_forces());
  EXPECT_EQ(restored.uids(), rm.uids());
  EXPECT_EQ(restored.next_uid(), rm.next_uid());
  std::remove(path.c_str());
}

TEST(CheckpointTest, UidAssignmentContinuesAfterRestore) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 10, 0.0, 50.0, 10.0);
  std::string path = TempPath("uids.ckpt");
  ASSERT_TRUE(SaveCheckpoint(rm, path));

  ResourceManager restored;
  ASSERT_TRUE(LoadCheckpoint(&restored, path));
  AgentIndex i = restored.AddAgent(NewAgentSpec{});
  EXPECT_EQ(restored.uids()[i], 10u);  // continues, no collision
  std::remove(path.c_str());
}

TEST(CheckpointTest, EmptyPopulationRoundTrips) {
  ResourceManager rm;
  std::string path = TempPath("empty.ckpt");
  ASSERT_TRUE(SaveCheckpoint(rm, path));
  ResourceManager restored;
  testutil::FillRandomCells(&restored, 5, 0.0, 10.0, 5.0);  // pre-populated
  ASSERT_TRUE(LoadCheckpoint(&restored, path));
  EXPECT_EQ(restored.size(), 0u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsGarbageAndLeavesTargetUntouched) {
  std::string path = TempPath("garbage.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a checkpoint", f);
  std::fclose(f);

  ResourceManager rm;
  testutil::FillRandomCells(&rm, 7, 0.0, 10.0, 5.0);
  EXPECT_FALSE(LoadCheckpoint(&rm, path));
  EXPECT_EQ(rm.size(), 7u);  // unchanged
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsTruncatedFile) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 50.0, 10.0);
  std::string path = TempPath("trunc.ckpt");
  ASSERT_TRUE(SaveCheckpoint(rm, path));

  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  ResourceManager target;
  EXPECT_FALSE(LoadCheckpoint(&target, path));
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  ResourceManager rm;
  EXPECT_FALSE(LoadCheckpoint(&rm, "/nonexistent_dir_xyz/x.ckpt"));
  EXPECT_FALSE(SaveCheckpoint(rm, "/nonexistent_dir_xyz/x.ckpt"));
}

TEST(CheckpointTest, FullDeviceSaveReportsFailure) {
  // Regression: fwrite results were unchecked, so a full disk produced a
  // silently truncated checkpoint that only failed at load time. /dev/full
  // returns ENOSPC on write (possibly only at flush time, which is why
  // SaveCheckpoint must check the flush too).
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full not available";
  }
  std::fclose(probe);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 64, 0.0, 50.0, 10.0);
  EXPECT_FALSE(SaveCheckpoint(rm, "/dev/full"));
}

TEST(CheckpointTest, RejectsTruncationAtAnyPoint) {
  // A checkpoint cut off anywhere — inside the magic, a length word, or an
  // array — must fail the load and leave the target untouched.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 20, 0.0, 50.0, 10.0);
  std::string path = TempPath("trunc_points.ckpt");
  ASSERT_TRUE(SaveCheckpoint(rm, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);

  for (long cut : {0L, 4L, 8L, 15L, 16L, 24L, size / 4, size / 2, size - 1}) {
    ASSERT_TRUE(SaveCheckpoint(rm, path));
    ASSERT_EQ(truncate(path.c_str(), cut), 0);
    ResourceManager target;
    testutil::FillRandomCells(&target, 3, 0.0, 10.0, 5.0);
    EXPECT_FALSE(LoadCheckpoint(&target, path)) << "cut at " << cut;
    EXPECT_EQ(target.size(), 3u) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

/// Appends `v` as the format's little-endian 64-bit word.
void PutU64(std::FILE* f, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    std::fputc(static_cast<int>((v >> (8 * i)) & 0xff), f);
  }
}

TEST(CheckpointTest, RejectsCountsLargerThanTheFile) {
  // Header and array counts agree on 2^59 agents: more than
  // vector<Double3>::max_size(), so building the array first would throw
  // length_error instead of failing the load.
  std::string path = TempPath("huge_counts.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("BIOSIMCK", f);
  PutU64(f, 1);  // version
  const uint64_t huge = uint64_t{1} << 59;
  for (int word = 0; word < 8; ++word) {  // agent count + 7 array counts
    PutU64(f, huge);
  }
  std::fclose(f);

  ResourceManager rm;
  testutil::FillRandomCells(&rm, 7, 0.0, 10.0, 5.0);
  bool loaded = true;
  EXPECT_NO_THROW(loaded = LoadCheckpoint(&rm, path));
  EXPECT_FALSE(loaded);
  EXPECT_EQ(rm.size(), 7u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsUidCounterNotAboveEveryUid) {
  // uids 0..9 restored with next_uid 9: the next birth would reuse uid 9
  // and with it that agent's RNG stream.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 10, 0.0, 50.0, 10.0);
  std::string path = TempPath("uid_counter.ckpt");
  ASSERT_TRUE(SaveCheckpoint(rm, path));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);  // next_uid is the last word
  PutU64(f, 9);
  std::fclose(f);

  ResourceManager target;
  testutil::FillRandomCells(&target, 3, 0.0, 10.0, 5.0);
  EXPECT_FALSE(LoadCheckpoint(&target, path));
  EXPECT_EQ(target.size(), 3u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResumedSimulationEvolvesIdentically) {
  // Run 6 steps; checkpoint at 3; resume and compare to the uninterrupted
  // run. Behaviors are re-attached after restore (they are not serialized).
  auto make = [](ResourceManager* seed) {
    Param p;
    p.random_seed = 9;
    Simulation sim(p);
    if (seed != nullptr) {
      // Positions only; mechanics-only model (no behaviors).
      for (size_t i = 0; i < seed->size(); ++i) {
        NewAgentSpec s;
        s.position = seed->positions()[i];
        s.diameter = seed->diameters()[i];
        s.adherence = 0.001;
        sim.rm().AddAgent(std::move(s));
      }
    }
    return sim;
  };

  ResourceManager init;
  testutil::FillRandomCells(&init, 200, 200.0, 400.0, 10.0, /*seed=*/31);
  for (auto& a : init.adherences()) {
    a = 0.001;
  }

  // Uninterrupted: 6 steps.
  Simulation full = make(&init);
  full.Simulate(6);

  // Interrupted: 3 steps, save, load, 3 more.
  Simulation first = make(&init);
  first.Simulate(3);
  std::string path = TempPath("resume.ckpt");
  ASSERT_TRUE(SaveCheckpoint(first.rm(), path));

  Param p;
  p.random_seed = 9;
  Simulation resumed(p);
  ASSERT_TRUE(LoadCheckpoint(&resumed.rm(), path));
  resumed.Simulate(3);

  ASSERT_EQ(resumed.rm().size(), full.rm().size());
  for (size_t i = 0; i < full.rm().size(); ++i) {
    ASSERT_NEAR(resumed.rm().positions()[i].x, full.rm().positions()[i].x,
                1e-12);
    ASSERT_NEAR(resumed.rm().positions()[i].y, full.rm().positions()[i].y,
                1e-12);
    ASSERT_NEAR(resumed.rm().positions()[i].z, full.rm().positions()[i].z,
                1e-12);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, PopulationWithBehaviorsResumesIdentically) {
  // A proliferating (GrowDivide) population checkpointed mid-run must
  // evolve identically after restore: the behavior-derived state —
  // volumes/diameters mid-growth and the uid counter feeding the per-agent
  // division RNG streams — all live in the serialized arrays. Behaviors
  // themselves are code, not data (checkpoint.h): the resuming side
  // re-attaches them and restores the simulation clock, which the division
  // RNG also mixes.
  constexpr double kThreshold = 16.0;
  constexpr double kGrowthRate = 100000.0;  // divide within a few steps
  auto make = []() {
    Param p;
    p.random_seed = 17;
    p.max_bound = 400.0;
    Simulation sim(p);
    return sim;
  };
  auto attach_all = [&](Simulation* sim) {
    for (size_t i = 0; i < sim->rm().size(); ++i) {
      sim->rm().AttachBehavior(
          i, std::make_unique<GrowDivide>(kThreshold, kGrowthRate));
    }
  };

  // Uninterrupted: 6 steps of growth + division.
  Simulation full = make();
  full.Create3DCellGrid(4, 15.0, 8.0, kThreshold, kGrowthRate);
  const size_t initial = full.rm().size();
  full.Simulate(6);
  ASSERT_GT(full.rm().size(), initial) << "workload must actually divide";

  // Interrupted at step 3: save, load into a fresh simulation, re-attach
  // the behaviors, restore the clock, run the remaining 3 steps.
  Simulation first = make();
  first.Create3DCellGrid(4, 15.0, 8.0, kThreshold, kGrowthRate);
  first.Simulate(3);
  std::string path = TempPath("behaviors.ckpt");
  ASSERT_TRUE(SaveCheckpoint(first.rm(), path));
  const size_t at_checkpoint = first.rm().size();

  Simulation resumed = make();
  ASSERT_TRUE(LoadCheckpoint(&resumed.rm(), path));
  ASSERT_EQ(resumed.rm().size(), at_checkpoint);
  EXPECT_EQ(resumed.rm().diameters(), first.rm().diameters());
  EXPECT_EQ(resumed.rm().volumes(), first.rm().volumes());
  attach_all(&resumed);
  resumed.SetStep(first.step());
  resumed.Simulate(3);

  // Divisions continue across the restore (behavior state survived) and the
  // two runs are interchangeable agent by agent.
  EXPECT_GT(resumed.rm().size(), at_checkpoint)
      << "restored population stopped proliferating";
  ASSERT_EQ(resumed.rm().size(), full.rm().size());
  for (size_t i = 0; i < full.rm().size(); ++i) {
    ASSERT_EQ(resumed.rm().uids()[i], full.rm().uids()[i]);
    ASSERT_NEAR(resumed.rm().positions()[i].x, full.rm().positions()[i].x,
                1e-12);
    ASSERT_NEAR(resumed.rm().positions()[i].y, full.rm().positions()[i].y,
                1e-12);
    ASSERT_NEAR(resumed.rm().positions()[i].z, full.rm().positions()[i].z,
                1e-12);
    ASSERT_NEAR(resumed.rm().diameters()[i], full.rm().diameters()[i], 1e-12);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace biosim
