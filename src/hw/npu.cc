#include "hw/npu.h"

namespace deepserve::hw {

NpuSpec NpuSpec::Gen1() {
  NpuSpec spec;
  spec.name = "ascend-gen1";
  spec.tflops_fp16 = 280.0;
  spec.hbm_bandwidth_gbps = 800.0;
  spec.hbm_capacity = 32ull << 30;
  spec.cost_per_hour = 1.0;
  return spec;
}

NpuSpec NpuSpec::Gen2() {
  NpuSpec spec;
  spec.name = "ascend-gen2";
  spec.tflops_fp16 = 400.0;
  spec.hbm_bandwidth_gbps = 1600.0;
  spec.hbm_capacity = 64ull << 30;
  spec.cost_per_hour = 2.5;
  return spec;
}

}  // namespace deepserve::hw
