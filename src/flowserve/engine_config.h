// FlowServe engine configuration: role, feature level, batching policy.
#ifndef DEEPSERVE_FLOWSERVE_ENGINE_CONFIG_H_
#define DEEPSERVE_FLOWSERVE_ENGINE_CONFIG_H_

#include <string>

#include "common/time_units.h"
#include "common/types.h"
#include "flowserve/sched/sched_config.h"
#include "hw/npu.h"
#include "model/cost_model.h"
#include "model/model_spec.h"

namespace deepserve::flowserve {

// Serving mode of a TE's engine (§4.5 task-level disaggregation).
enum class EngineRole { kColocated, kPrefillOnly, kDecodeOnly };

std::string_view EngineRoleToString(EngineRole role);

// How prefilled KV reaches the decode TE in PD-disaggregated mode (§4.5):
// by-request sends the whole cache after prefill completes; by-layer streams
// layer-by-layer during prefill so only the final layer's KV remains at the
// end.
enum class KvTransferMode { kByRequest, kByLayer };

// Engine feature level. Fig. 3 tracks FlowServe v1 -> v2 -> v3:
//   v1: synchronous scheduling — every iteration pays the full CPU scheduling
//       cost plus per-step master->executor IPC before the NPU can start.
//   v2: asynchronous execution (the scheduler prepares batch N+1 while the
//       NPU runs batch N, so CPU time hides behind NPU time) + batched IPC.
//   v3: v2 with leaner scheduler data structures and device-side sampling
//       (~20% less residual overhead).
struct EngineFeatures {
  std::string name = "v3";
  bool async_scheduling = true;
  DurationNs sched_overhead_base = MsToNs(1.2);
  DurationNs sched_overhead_per_seq = UsToNs(18);
  DurationNs ipc_overhead = UsToNs(150);
  // CPU-side sampling/detokenize cost per sequence per step.
  DurationNs sampling_overhead_per_seq = UsToNs(8);
  // Device-side costs that no amount of CPU overlap hides: kernel-launch gaps
  // per step and sampling work per sequence (moved on-device and slimmed in
  // v3 — the "data structures, sampling, and so on" 20%).
  DurationNs npu_step_overhead = UsToNs(800);
  DurationNs npu_sampling_per_seq = UsToNs(8);

  static EngineFeatures V1() {
    EngineFeatures f;
    f.name = "v1";
    f.async_scheduling = false;
    f.sched_overhead_base = MsToNs(12.0);
    f.sched_overhead_per_seq = UsToNs(90);
    f.ipc_overhead = MsToNs(7.0);  // per-step IPC, unbatched
    f.sampling_overhead_per_seq = UsToNs(60);
    f.npu_step_overhead = MsToNs(5.5);
    f.npu_sampling_per_seq = UsToNs(110);
    return f;
  }
  static EngineFeatures V2() {
    EngineFeatures f;
    f.name = "v2";
    f.async_scheduling = true;
    f.sched_overhead_base = MsToNs(2.5);
    f.sched_overhead_per_seq = UsToNs(40);
    f.ipc_overhead = UsToNs(400);
    f.sampling_overhead_per_seq = UsToNs(25);
    f.npu_step_overhead = MsToNs(5.5);
    f.npu_sampling_per_seq = UsToNs(110);
    return f;
  }
  static EngineFeatures V3() { return EngineFeatures{}; }
};

struct EngineConfig {
  model::ModelSpec model = model::ModelSpec::Yi34B();
  // On a heterogeneous cluster the ClusterManager replaces this with the
  // spec of the machine the TE lands on; on a homogeneous one it stands.
  hw::NpuSpec npu_spec = hw::NpuSpec::Gen2();
  model::ParallelismConfig parallelism{4, 1, 1};
  EngineRole role = EngineRole::kColocated;
  EngineFeatures features = EngineFeatures::V3();

  int64_t max_batch_seqs = 256;         // continuous-batching cap per DP group
  int64_t max_tokens_per_step = 8192;   // token budget per step
  int64_t prefill_chunk_tokens = 512;
  // Micro-batch chunk placement under PP (§4.2): spread across consecutive
  // micro-batches (the paper's design, >=20% TTFT win) vs sticky-to-one.
  bool pp_spread_chunks = true;

  bool enable_prefix_caching = true;
  // Position-independent caching (§4.3 / EPIC): reuse cached KV chunks found
  // anywhere in the prompt, paying a boundary-recompute fraction.
  bool enable_pic = false;
  // Async KV-cache prefetch populates an off-NPU prefix when the fitted cost
  // model says fetching it is no slower than recomputing it. This is the
  // assumed tiered-storage fetch bandwidth of that model (the real system
  // fits it from observed DistFlow transfers).
  double populate_bandwidth_gbps = 25.0;

  KvTransferMode kv_transfer_mode = KvTransferMode::kByLayer;

  // Operator-level disaggregation (§4.5): attention and experts on separate
  // TEs (MoE models only). The engine then models the attention+expert
  // ensemble as one logical serving instance whose KV budget excludes expert
  // weights.
  model::AeDisaggConfig ae_disagg;

  // Cap on logical KV blocks; 0 = derive from HBM capacity via the cost
  // model (tests override to small values).
  int64_t kv_block_capacity_override = 0;

  // Scheduling-policy selection and knobs (src/flowserve/sched/).
  sched::SchedConfig sched;
};

}  // namespace deepserve::flowserve

#endif  // DEEPSERVE_FLOWSERVE_ENGINE_CONFIG_H_
