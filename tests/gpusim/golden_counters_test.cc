// Golden-counter regression harness: pins the exact KernelStats integer
// counters the simulator produces for the paper's GPU ladder (v0..v3) and
// its future-work v4 on a fixed-seed 4k-agent workload, metered exactly
// (meter stride 1) and on the sampled path every figure bench and the
// runner default to (meter stride 8).
//
// The source paper's argument rests on counter fidelity — DRAM bytes, L2
// hits, transactions, FLOPs and atomic conflicts are what every figure is
// derived from — so any change to the metered path (coalescer, cache
// simulation, warp accounting, the block chunking of Device::Launch) must
// reproduce these numbers *byte-identically*. Every pinned run is checked
// at 1, 2, 3 and 4 host workers (gpusim splits block_parallel_safe launches
// into that many chunks) and through both front-ends.
//
// Updating the goldens (only when the *model* intentionally changes — never
// to paper over an accidental diff):
//
//   BIOSIM_UPDATE_GOLDENS=1 ./build/tests/gpusim_tests
//     --gtest_filter=GoldenCountersTest.ExactPathMatchesGoldens
//
// then re-run the suite without the env var and commit the JSON with an
// explanation of why the counters legitimately moved.
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/thread_pool.h"
#include "gpu/gpu_mechanical_op.h"
#include "gpusim/profiler.h"
#include "spatial/null_environment.h"

namespace biosim::gpu {
namespace {

constexpr const char* kGoldenRelPath = "/tests/gpusim/golden_counters.json";

/// One pinned configuration: a GPU version run at a meter stride, stored
/// under `key` in the golden file.
struct PinnedRun {
  const char* key;
  int version;
  int stride;
};

/// The ladder metered exactly.
constexpr PinnedRun kExactRuns[] = {
    {"v0", 0, 1}, {"v1", 1, 1}, {"v2", 2, 1}, {"v3", 3, 1}, {"v4", 4, 1}};
/// The sampled path (stride 8 is the default of bench/common.h and
/// app/config.h) across the whole ladder.
constexpr PinnedRun kSampledRuns[] = {{"s8_v0", 0, 8},
                                      {"s8_v1", 1, 8},
                                      {"s8_v2", 2, 8},
                                      {"s8_v3", 3, 8},
                                      {"s8_v4", 4, 8}};

/// Host worker counts every pinned run is checked at: one chunk, and
/// chunked launches with a direct-probe first chunk plus replayed ones. The
/// pinned grids are powers of two, so 2 and 4 workers start every chunk on
/// a multiple of the stride-8 sampling period; 3 workers do not.
constexpr uint32_t kWorkerCounts[] = {1, 2, 3, 4};

/// Counters of one kernel (or the transfer pseudo-kernel), by name. All
/// integers: these must match the goldens exactly, bit for bit.
using CounterMap = std::map<std::string, uint64_t>;
/// kernel name -> counters.
using KernelMap = std::map<std::string, CounterMap>;
/// Pinned run key ("v0", "s8_v0", ...) -> kernels.
using GoldenMap = std::map<std::string, KernelMap>;

/// GTX 1080 Ti with the L2 shrunk so the 4k-agent working set exceeds it —
/// the benchmark-A regime (262k+ agents vs 2.75 MB) at a size the suite can
/// meter exactly (stride 1) in milliseconds.
gpusim::DeviceSpec GoldenSpec() {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::GTX1080Ti();
  spec.l2_capacity_bytes = 64 * 1024;
  spec.l1_capacity_bytes = 16 * 1024;
  return spec;
}

CounterMap Counters(const gpusim::AggregatedKernel& k) {
  return CounterMap{
      {"launches", k.launches},
      {"total_threads", k.total_threads},
      {"fp32_flops", k.fp32_flops},
      {"fp64_flops", k.fp64_flops},
      {"read_transactions", k.read_transactions},
      {"write_transactions", k.write_transactions},
      {"dram_read_bytes", k.dram_read_bytes},
      {"dram_write_bytes", k.dram_write_bytes},
      {"l2_read_hit_bytes", k.l2_read_hit_bytes},
      {"l2_write_hit_bytes", k.l2_write_hit_bytes},
      {"l1_read_hit_bytes", k.l1_read_hit_bytes},
      {"l1_write_hit_bytes", k.l1_write_hit_bytes},
      {"requested_read_bytes", k.requested_read_bytes},
      {"requested_write_bytes", k.requested_write_bytes},
      {"shared_bytes", k.shared_bytes},
      {"atomic_ops", k.atomic_ops},
      {"atomic_serialized", k.atomic_serialized},
      {"lane_ops_sum", k.lane_ops_sum},
      {"warp_ops_slots", k.warp_ops_slots},
      {"max_lane_mem_ops", k.max_lane_mem_ops},
  };
}

/// One step of the version-v pipeline on the fixed-seed 4k-agent workload
/// (16^3 jittered lattice, shuffled into the aged-population layout) at the
/// given meter stride. Returns every launched kernel's aggregated counters
/// plus the host<->device transfer totals.
KernelMap RunVersion(int v, int stride, GpuBackendKind front) {
  ResourceManager rm;
  testutil::FillLatticeCells(&rm, 16, 10.0, 10.0, /*jitter=*/1.5,
                             /*seed=*/42);
  testutil::ShuffleAgents(&rm, /*seed=*/99);

  Param param;
  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(v, GoldenSpec());
  opts.meter_stride = stride;
  opts.backend = front;
  GpuMechanicalOp op(opts);
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);

  KernelMap out;
  gpusim::ProfileReport report(op.device());
  for (const auto& k : report.kernels()) {
    out[k.name] = Counters(k);
  }
  const gpusim::TransferStats& t = op.device().transfers();
  out["_transfers"] = CounterMap{
      {"h2d_bytes", t.h2d_bytes},
      {"d2h_bytes", t.d2h_bytes},
      {"h2d_count", t.h2d_count},
      {"d2h_count", t.d2h_count},
  };
  return out;
}

template <size_t N>
GoldenMap RunAll(const PinnedRun (&runs)[N],
                 GpuBackendKind front = GpuBackendKind::kCudaLike) {
  GoldenMap all;
  for (const PinnedRun& r : runs) {
    all[r.key] = RunVersion(r.version, r.stride, front);
  }
  return all;
}

std::string GoldenPath() {
  return std::string(BIOSIM_SOURCE_DIR) + kGoldenRelPath;
}

// --- minimal JSON (de)serialization for the fixed 3-level schema ----------

void WriteGoldens(const GoldenMap& all, const std::string& path) {
  std::ofstream f(path);
  f << "{\n";
  f << "  \"_workload\": \"16^3 lattice spacing 10 diam 10 jitter 1.5 seed "
       "42, shuffled seed 99, 1 step, L2 64KiB L1 16KiB; vN at meter stride "
       "1, s8_vN at meter stride 8\",\n";
  size_t vi = 0;
  for (const auto& [version, kernels] : all) {
    f << "  \"" << version << "\": {\n";
    size_t ki = 0;
    for (const auto& [kernel, counters] : kernels) {
      f << "    \"" << kernel << "\": {";
      size_t ci = 0;
      for (const auto& [name, value] : counters) {
        f << "\"" << name << "\": " << value;
        if (++ci < counters.size()) {
          f << ", ";
        }
      }
      f << (++ki < kernels.size() ? "},\n" : "}\n");
    }
    f << (++vi < all.size() ? "  },\n" : "  }\n");
  }
  f << "}\n";
}

/// Parser for the subset written above: nested string-keyed objects whose
/// leaves are unsigned integers; string values (the _workload note) are
/// skipped. Hard-fails the test on malformed input.
class GoldenParser {
 public:
  explicit GoldenParser(std::string text) : text_(std::move(text)) {}

  GoldenMap Parse() {
    GoldenMap all;
    Expect('{');
    while (PeekNonSpace() != '}') {
      std::string version = ParseString();
      Expect(':');
      if (PeekNonSpace() == '"') {
        ParseString();  // metadata note
      } else {
        all[version] = ParseKernels();
      }
      if (PeekNonSpace() == ',') {
        Expect(',');
      }
    }
    Expect('}');
    return all;
  }

 private:
  KernelMap ParseKernels() {
    KernelMap kernels;
    Expect('{');
    while (PeekNonSpace() != '}') {
      std::string kernel = ParseString();
      Expect(':');
      kernels[kernel] = ParseCounters();
      if (PeekNonSpace() == ',') {
        Expect(',');
      }
    }
    Expect('}');
    return kernels;
  }

  CounterMap ParseCounters() {
    CounterMap counters;
    Expect('{');
    while (PeekNonSpace() != '}') {
      std::string name = ParseString();
      Expect(':');
      counters[name] = ParseUint();
      if (PeekNonSpace() == ',') {
        Expect(',');
      }
    }
    Expect('}');
    return counters;
  }

  char PeekNonSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    EXPECT_LT(pos_, text_.size()) << "unexpected end of golden JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    char got = PeekNonSpace();
    ASSERT_EQ(got, c) << "golden JSON parse error at offset " << pos_;
    ++pos_;
  }

  std::string ParseString() {
    Expect('"');
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      s += text_[pos_++];
    }
    Expect('"');
    return s;
  }

  uint64_t ParseUint() {
    PeekNonSpace();
    uint64_t v = 0;
    bool any = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + static_cast<uint64_t>(text_[pos_++] - '0');
      any = true;
    }
    EXPECT_TRUE(any) << "expected integer at offset " << pos_;
    return v;
  }

  std::string text_;
  size_t pos_ = 0;
};

GoldenMap LoadGoldens() {
  std::ifstream f(GoldenPath());
  EXPECT_TRUE(f.good()) << "missing golden file " << GoldenPath()
                        << " — record it with BIOSIM_UPDATE_GOLDENS=1";
  std::stringstream ss;
  ss << f.rdbuf();
  return GoldenParser(ss.str()).Parse();
}

/// Byte-identical comparison of every run in `got` with a readable
/// per-counter diff.
void ExpectMatchesGoldens(const GoldenMap& got, const GoldenMap& want,
                          const std::string& mode) {
  ASSERT_EQ(want.size(), std::size(kExactRuns) + std::size(kSampledRuns))
      << "golden file does not cover every pinned run";
  for (const auto& [version, got_kernels] : got) {
    auto vit = want.find(version);
    ASSERT_NE(vit, want.end()) << mode << ": no golden for " << version;
    const KernelMap& want_kernels = vit->second;
    EXPECT_EQ(got_kernels.size(), want_kernels.size())
        << mode << " " << version << ": kernel set changed";
    for (const auto& [kernel, want_counters] : want_kernels) {
      auto kit = got_kernels.find(kernel);
      ASSERT_NE(kit, got_kernels.end())
          << mode << " " << version << ": kernel '" << kernel
          << "' no longer launched";
      for (const auto& [name, want_value] : want_counters) {
        auto cit = kit->second.find(name);
        ASSERT_NE(cit, kit->second.end())
            << mode << " " << version << " " << kernel
            << ": counter '" << name << "' missing";
        EXPECT_EQ(cit->second, want_value)
            << mode << " " << version << " kernel '" << kernel
            << "' counter '" << name << "' drifted from the golden";
      }
    }
  }
}

/// Every run of `runs` at every worker count through both front-ends must
/// match the goldens byte for byte.
template <size_t N>
void ExpectAllWorkerCountsMatch(const PinnedRun (&runs)[N]) {
  const GoldenMap want = LoadGoldens();
  for (uint32_t workers : kWorkerCounts) {
    testutil::ScopedWorkers scoped(workers);
    for (GpuBackendKind front :
         {GpuBackendKind::kCudaLike, GpuBackendKind::kOpenClLike}) {
      const std::string mode =
          std::string(front == GpuBackendKind::kCudaLike ? "cuda-like"
                                                         : "opencl-like") +
          " at " + std::to_string(workers) + " workers";
      ExpectMatchesGoldens(RunAll(runs, front), want, mode);
    }
  }
}

TEST(GoldenCountersTest, ExactPathMatchesGoldens) {
  if (std::getenv("BIOSIM_UPDATE_GOLDENS") != nullptr) {
    testutil::ScopedWorkers scoped(1);
    GoldenMap got = RunAll(kExactRuns);
    got.merge(RunAll(kSampledRuns));
    WriteGoldens(got, GoldenPath());
    GTEST_SKIP() << "goldens re-recorded at " << GoldenPath();
  }
  ExpectAllWorkerCountsMatch(kExactRuns);
}

TEST(GoldenCountersTest, SampledPathMatchesGoldens) {
  // Warp sampling picks warps by their launch-wide index and scales every
  // counter by the stride; a chunk starts its warp counter at begin * W
  // (W = warps per block), so the sampled warps are the same at any worker
  // count.
  if (std::getenv("BIOSIM_UPDATE_GOLDENS") != nullptr) {
    GTEST_SKIP() << "goldens are recorded by ExactPathMatchesGoldens";
  }
  ExpectAllWorkerCountsMatch(kSampledRuns);
}

TEST(GoldenCountersTest, WorkerCountsAgreeExactly) {
  // Worker-count comparison that holds even while goldens are being
  // re-recorded: chunking never moves a counter.
  GoldenMap one;
  GoldenMap three;
  {
    testutil::ScopedWorkers scoped(1);
    one = RunAll(kExactRuns);
    one.merge(RunAll(kSampledRuns));
  }
  {
    testutil::ScopedWorkers scoped(3);
    three = RunAll(kExactRuns);
    three.merge(RunAll(kSampledRuns));
  }
  EXPECT_TRUE(one == three) << "chunked metering diverged from 1 worker";
}

TEST(GoldenCountersTest, NonUniformPhaseCountBreaksBlockParallelContract) {
  // A block_parallel_safe kernel promises that every block runs the same
  // for_each_lane phases. Block 5 here runs one more, so a later chunk's
  // warp counter would start at the wrong warp. The launch must fail loudly,
  // naming the kernel, and the same at every worker count.
  auto launch = [](bool uniform) {
    gpusim::Device dev(GoldenSpec());
    dev.SetMeterStride(8);
    auto buf = dev.Alloc<float>(8 * 64);
    dev.Launch({"uneven", 8, 64, /*block_parallel_safe=*/true},
               [&](gpusim::BlockCtx& blk) {
                 blk.for_each_lane([&](auto& t) {
                   t.st(buf, t.gtid(), 1.0f);
                 });
                 if (!uniform && blk.block() == 5) {
                   blk.for_each_lane([&](auto& t) {
                     t.st(buf, t.gtid(), 2.0f);
                   });
                 }
               });
  };
  for (uint32_t workers : kWorkerCounts) {
    testutil::ScopedWorkers scoped(workers);
    EXPECT_NO_THROW(launch(/*uniform=*/true)) << workers << " workers";
    try {
      launch(/*uniform=*/false);
      ADD_FAILURE() << "non-uniform phases accepted at " << workers
                    << " workers";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'uneven'"), std::string::npos) << what;
      EXPECT_NE(what.find("block 5"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace biosim::gpu
