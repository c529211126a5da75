#include "roofline/ert.h"

#include <algorithm>
#include <cstdio>

#include "gpusim/device.h"

namespace biosim::roofline {

namespace {

/// ERT-style streaming kernel: each thread loads one element, applies
/// `flops_per_elem` fused multiply-adds, stores the result. AI is then
/// flops_per_elem / (2 * sizeof(T)) when the working set streams from DRAM.
template <typename T>
double RunStream(gpusim::Device& dev, size_t n, int flops_per_elem) {
  auto buf = dev.Alloc<T>(n);
  auto out = dev.Alloc<T>(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<T>(i % 97) * static_cast<T>(0.01);
  }
  dev.ResetCache();
  double before = dev.KernelMs();
  // Each lane reads buf[i], writes only out[i] and every block runs one
  // lane phase, so blocks are independent: the device may run them in
  // concurrent chunks with every counter unchanged.
  dev.Launch(
      {"ert_stream", (n + 255) / 256, 256, /*block_parallel_safe=*/true},
      [&](gpusim::BlockCtx& blk) {
        blk.for_each_lane([&](auto& t) {
          size_t i = t.gtid();
          if (i >= n) {
            return;
          }
          T v = t.ld(buf, i);
          T acc = v;
          for (int k = 0; k < flops_per_elem / 2; ++k) {
            acc = acc * static_cast<T>(1.0000001) + v;  // FMA = 2 FLOPs
          }
          if constexpr (std::is_same_v<T, float>) {
            t.flops32(static_cast<uint64_t>(flops_per_elem));
          } else {
            t.flops64(static_cast<uint64_t>(flops_per_elem));
          }
          t.st(out, i, acc);
        });
      });
  return dev.KernelMs() - before;
}

}  // namespace

EmpiricalRoofline::EmpiricalRoofline(gpusim::DeviceSpec spec,
                                     size_t working_set_bytes)
    : spec_(std::move(spec)), working_set_bytes_(working_set_bytes) {}

RooflineCeilings EmpiricalRoofline::Measure() {
  RooflineCeilings c;
  points_.clear();

  size_t n = working_set_bytes_ / sizeof(float);

  // Sweep FLOPs per element from pure streaming to compute-saturating, like
  // ERT's unrolled FMA ladder.
  for (int flops : {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}) {
    gpusim::Device dev(spec_);
    dev.SetMeterStride(16);  // the stream is uniform; sampling is exact here
    double ms = RunStream<float>(dev, n, flops);
    double total_flops = static_cast<double>(n) * flops;
    double bytes = static_cast<double>(n) * 2 * sizeof(float);  // ld + st
    RooflinePoint pt;
    pt.label = "ert_fp32_" + std::to_string(flops);
    pt.arithmetic_intensity = total_flops / bytes;
    pt.gflops = total_flops / (ms * 1e6);
    points_.push_back(pt);

    c.fp32_peak_gflops = std::max(c.fp32_peak_gflops, pt.gflops);
    c.dram_bandwidth_gbps =
        std::max(c.dram_bandwidth_gbps, pt.gflops / pt.arithmetic_intensity);
  }

  // FP64 compute roof from one high-intensity double run.
  {
    gpusim::Device dev(spec_);
    dev.SetMeterStride(16);
    size_t nd = working_set_bytes_ / sizeof(double);
    double ms = RunStream<double>(dev, nd, 2048);
    c.fp64_peak_gflops = static_cast<double>(nd) * 2048 / (ms * 1e6);
  }

  c.l2_bandwidth_gbps = spec_.l2_bandwidth_gbps;  // not separable by streaming
  return c;
}

std::string EmpiricalRoofline::Table(
    const RooflineCeilings& ceilings,
    const std::vector<RooflinePoint>& kernels) {
  std::string out;
  char line[256];
  snprintf(line, sizeof(line),
           "empirical ceilings: FP32 peak %.0f GFLOP/s, FP64 peak %.0f "
           "GFLOP/s, DRAM %.0f GB/s\n",
           ceilings.fp32_peak_gflops, ceilings.fp64_peak_gflops,
           ceilings.dram_bandwidth_gbps);
  out += line;
  out +=
      "kernel                      AI(flop/B)   GFLOP/s   attainable   "
      "%of_roof\n";
  for (const auto& k : kernels) {
    double roof = ceilings.Attainable(k.arithmetic_intensity);
    snprintf(line, sizeof(line), "%-26s %11.3f %9.1f %12.1f %9.1f%%\n",
             k.label.c_str(), k.arithmetic_intensity, k.gflops, roof,
             roof > 0 ? 100.0 * k.gflops / roof : 0.0);
    out += line;
  }
  return out;
}

}  // namespace biosim::roofline
