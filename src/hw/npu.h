// Simulated Ascend NPU spec. The DaVinci-core micro-architecture is
// abstracted into the two roofline parameters that the paper's results
// actually depend on (dense FP16 throughput and HBM bandwidth), plus
// capacity. HBM occupancy is not tracked here: a TE's KV blocks on its NPUs
// are the RTC pool's NPU-tier count (rtc::BlockPool).
#ifndef DEEPSERVE_HW_NPU_H_
#define DEEPSERVE_HW_NPU_H_

#include <cstdint>
#include <string>

#include "common/types.h"

namespace deepserve::hw {

using NpuId = int32_t;
using MachineId = int32_t;

inline constexpr NpuId kInvalidNpu = -1;

// Device generations mirror the paper's Gen1/Gen2 Ascend clusters
// ("280 to 400 TFlops ... 32 to 64 GB of HBM").
struct NpuSpec {
  std::string name;
  double tflops_fp16 = 350.0;       // dense FP16 peak
  double hbm_bandwidth_gbps = 1200; // GB/s
  Bytes hbm_capacity = 64ull << 30; // 64 GiB
  // Fraction of peak achievable by well-tuned kernels (MFU / bandwidth eff.).
  double compute_efficiency = 0.45;
  double memory_efficiency = 0.80;
  // Amortized $/hour of holding one card (cloud list-price shape: the newer
  // generation costs proportionally more than its bandwidth advantage, so
  // tokens-per-second-per-dollar can favor either generation depending on
  // whether the model fits the smaller HBM). Feeds cost-aware placement.
  double cost_per_hour = 1.8;

  static NpuSpec Gen1();  // 280 TFLOPS, 32 GiB HBM
  static NpuSpec Gen2();  // 400 TFLOPS, 64 GiB HBM

  double effective_flops() const { return tflops_fp16 * 1e12 * compute_efficiency; }
  double effective_hbm_bps() const { return hbm_bandwidth_gbps * 1e9 * memory_efficiency; }
};

}  // namespace deepserve::hw

#endif  // DEEPSERVE_HW_NPU_H_
