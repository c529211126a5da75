// Cross-backend parity: every backend's trajectory must stay within its
// documented bound of the uniform-grid serial reference (src/app/parity.h,
// docs/determinism.md). This is the test CI runs; tools/biosim_parity is the
// same harness as a standalone diff driver.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "app/parity.h"

namespace biosim::app {
namespace {

class ParityHarnessTest : public ::testing::Test {
 protected:
  // One run shared by all assertions: the harness is the expensive part
  // (ten backends, five steps each).
  static void SetUpTestSuite() { report_ = new ParityReport(RunParity({})); }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
  }

  static const ParityResult& Result(const std::string& backend) {
    for (const ParityResult& r : report_->results) {
      if (r.backend == backend) {
        return r;
      }
    }
    ADD_FAILURE() << "no result for backend " << backend;
    static ParityResult missing;
    return missing;
  }

  static ParityReport* report_;
};

ParityReport* ParityHarnessTest::report_ = nullptr;

TEST_F(ParityHarnessTest, CoversEveryBackend) {
  std::set<std::string> names;
  for (const ParityResult& r : report_->results) {
    names.insert(r.backend);
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "ug_serial", "ug_parallel", "cpu_fast", "cpu_fast_mt",
                       "cpu_sharded", "kdtree",
                       "gpu_v0", "gpu_v1", "gpu_v2", "gpu_v3",
                       "gpu_v4"}));
}

TEST_F(ParityHarnessTest, AllBackendsWithinBounds) {
  for (const ParityResult& r : report_->results) {
    EXPECT_TRUE(r.pass) << report_->ToString();
  }
  EXPECT_TRUE(report_->all_pass);
}

TEST_F(ParityHarnessTest, UniformGridParallelIsBitwise) {
  // The tentpole claim: thread count never changes the FP operation order,
  // so the parallel grid owes hash-for-hash identity, not just closeness.
  const ParityResult& r = Result("ug_parallel");
  EXPECT_TRUE(r.bitwise_required);
  EXPECT_TRUE(r.hashes_equal) << report_->ToString();
  EXPECT_EQ(r.max_abs_delta, 0.0);
  EXPECT_EQ(r.final_hash, Result("ug_serial").final_hash);
}

TEST_F(ParityHarnessTest, CpuFastPathIsBitwise) {
  // The fused CSR kernel claim (docs/perf.md): same neighbor visit order,
  // same FP expressions — so it owes hash-for-hash identity against the
  // callback reference (the grid behind a ForwardingEnvironment), serial
  // and parallel alike.
  for (const char* name : {"cpu_fast", "cpu_fast_mt"}) {
    const ParityResult& r = Result(name);
    EXPECT_TRUE(r.bitwise_required) << name;
    EXPECT_TRUE(r.hashes_equal) << name << "\n" << report_->ToString();
    EXPECT_EQ(r.max_abs_delta, 0.0) << name;
    EXPECT_EQ(r.final_hash, Result("ug_serial").final_hash) << name;
  }
}

TEST_F(ParityHarnessTest, ShardedPipelineIsBitwise) {
  // The sharding claim (docs/sharding.md): partitioning only assigns work;
  // the merge discipline (canonical traversal, one global displacement
  // epilogue, row-ordered deposit merge) keeps the output bitwise-equal to
  // the unsharded reference at any shard count.
  const ParityResult& r = Result("cpu_sharded");
  EXPECT_TRUE(r.bitwise_required);
  EXPECT_TRUE(r.hashes_equal) << report_->ToString();
  EXPECT_EQ(r.max_abs_delta, 0.0);
  EXPECT_EQ(r.final_hash, Result("ug_serial").final_hash);
}

TEST_F(ParityHarnessTest, Fp64BackendsFarTighterThanFp32Bound) {
  // kd-tree and GPU v0 differ from the reference only by FP64 summation
  // order; their divergence must sit orders of magnitude under the FP32
  // bound, or the tolerance taxonomy is meaningless.
  EXPECT_LE(Result("kdtree").max_abs_delta, 1e-9);
  EXPECT_LE(Result("gpu_v0").max_abs_delta, 1e-9);
  EXPECT_LT(Result("gpu_v0").tolerance, Result("gpu_v1").tolerance);
}

TEST_F(ParityHarnessTest, ReportListsEveryBackendWithStatus)  {
  std::string text = report_->ToString();
  for (const ParityResult& r : report_->results) {
    EXPECT_NE(text.find(r.backend), std::string::npos) << text;
  }
  EXPECT_NE(text.find("OK"), std::string::npos) << text;
}

}  // namespace
}  // namespace biosim::app
