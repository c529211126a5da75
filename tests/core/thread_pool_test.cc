#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace biosim {
namespace {

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(mode, hits.size(), [&](size_t i) { hits[i]++; });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  int calls = 0;
  ParallelFor(ExecMode::kParallel, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForChunksCoverRangeExactly) {
  for (ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    std::vector<std::atomic<int>> hits(777);
    ParallelForChunks(mode, hits.size(), [&](size_t b, size_t e) {
      ASSERT_LE(b, e);
      for (size_t i = b; i < e; ++i) {
        hits[i]++;
      }
    });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPoolTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
}

}  // namespace
}  // namespace biosim
