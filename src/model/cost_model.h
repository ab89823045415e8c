// Analytical (roofline) step-latency model for transformer inference.
//
// The paper's engine results (Figs. 3-6) depend on when a forward step is
// compute-bound (prefill: ~2*P FLOPs per token plus quadratic attention) vs
// HBM-bandwidth-bound (decode: full weight read per step plus KV reads that
// grow with batch * context). A roofline over those two quantities, plus TP
// all-reduce time and a fixed NPU-side step overhead, reproduces the shapes:
// batch-size/TPOT tradeoffs, chunked-prefill interference inside PD-colocated
// engines, and the prefill-length dependence of the PD heatmap.
#ifndef DEEPSERVE_MODEL_COST_MODEL_H_
#define DEEPSERVE_MODEL_COST_MODEL_H_

#include <cstdint>

#include "common/time_units.h"
#include "common/types.h"
#include "hw/npu.h"
#include "model/model_spec.h"

namespace deepserve::model {

// The token-level composition of one engine step (one scheduler iteration).
struct StepShape {
  // New prompt tokens processed this step (prefill or chunked-prefill part).
  int64_t prefill_tokens = 0;
  // Sum over prefilling sequences of chunk_len * (past_context + chunk_len/2);
  // drives the quadratic attention-FLOPs term. Use AttendedTokens() to build.
  int64_t prefill_attended_tokens = 0;
  // Number of sequences taking one decode step.
  int64_t decode_seqs = 0;
  // Sum of current context lengths across those decode sequences (KV read).
  int64_t decode_context_tokens = 0;

  bool empty() const { return prefill_tokens == 0 && decode_seqs == 0; }
};

// Attention-window bookkeeping for a prefill chunk of `chunk_len` starting at
// position `past_len` of its sequence.
int64_t AttendedTokens(int64_t past_len, int64_t chunk_len);

// Communication parameters for TP collectives (decoupled from hw::Hccl so the
// cost model stays a pure function).
struct CommModel {
  double hccs_gbps = 90.0;
  DurationNs per_hop_latency = UsToNs(10);
};

// Operator-level (attention-expert) disaggregation (§4.5): attention runs on
// one TE (holding attention weights + the KV cache), experts on another; the
// per-layer activations cross a fabric link in both directions. Layers
// pipeline, so the step bottleneck is the slowest of the three per-layer
// stages.
struct AeDisaggConfig {
  bool enabled = false;
  double activation_link_gbps = 90.0;  // SuperPod-class link
  DurationNs per_layer_latency = UsToNs(10);
};

// ---- cost/perf placement signals (pure functions of the spec triple) -------
// Roofline decode throughput (tokens/s) of one serving instance built from
// `npu`, at a reference decode batch — the perf half of the placement score.
double EstimateDecodeTokensPerSecond(const ModelSpec& model, const hw::NpuSpec& npu,
                                     const ParallelismConfig& parallelism);
// Throughput per dollar-hour of the whole instance (cost_per_hour * NPUs):
// the generation score cost-aware placement ranks by. 0 when the model's
// weights don't fit the NPU at all.
double TokensPerSecondPerDollar(const ModelSpec& model, const hw::NpuSpec& npu,
                                const ParallelismConfig& parallelism);
// Share of each NPU's HBM that weights plus KV may fill: the paper's
// offline-profiled utilization target.
inline constexpr double kHbmUtilization = 0.90;

// Whether `npu`'s HBM fits the per-NPU weight shard plus at least
// `min_kv_tokens` of KV context at kHbmUtilization — the feasibility gate
// ahead of the score.
bool FitsHbm(const ModelSpec& model, const hw::NpuSpec& npu,
             const ParallelismConfig& parallelism, int64_t min_kv_tokens);

class CostModel {
 public:
  CostModel(ModelSpec model, hw::NpuSpec npu, ParallelismConfig parallelism,
            CommModel comm = CommModel{});

  const ModelSpec& model() const { return model_; }
  const ParallelismConfig& parallelism() const { return parallelism_; }
  const hw::NpuSpec& npu() const { return npu_; }

  // Wall time of one step across the whole TP group (all ranks move in
  // lockstep). With PP > 1 this is the per-stage time; the engine's PP
  // scheduler pipelines stages itself.
  DurationNs StepDuration(const StepShape& shape) const;

  // Convenience: a full un-chunked prefill of `prompt_tokens` as one step.
  DurationNs PrefillDuration(int64_t prompt_tokens) const;
  // Convenience: one decode step for `batch` sequences at `avg_context`.
  DurationNs DecodeStepDuration(int64_t batch, int64_t avg_context) const;

  // Time to recompute `tokens` of KV by re-running prefill over them; the
  // populate cost model compares this against fetching cached KV.
  DurationNs RecomputeDuration(int64_t tokens) const { return PrefillDuration(tokens); }

  // KV bytes per token stored on EACH NPU of the TP group (KV heads shard
  // across TP; PP shards layers).
  Bytes KvBytesPerTokenPerNpu() const;
  // Total KV bytes per token across the instance.
  Bytes KvBytesPerToken() const { return model_.KvBytesPerToken(); }

  // How many KV tokens fit on each NPU after weights, at kHbmUtilization.
  int64_t MaxKvTokensPerNpu() const;

  // Fixed NPU-side per-step overhead (kernel launches, sampling on device).
  void set_step_overhead(DurationNs overhead) { step_overhead_ = overhead; }
  DurationNs step_overhead() const { return step_overhead_; }

  // Enables attention-expert disaggregated execution (MoE models only).
  void SetAeDisagg(AeDisaggConfig config) { ae_ = config; }
  const AeDisaggConfig& ae_disagg() const { return ae_; }

  // Weight bytes streamed from HBM in one step processing `new_tokens` (for
  // MoE, only the experts the batch actually touches are read).
  double WeightReadBytes(double new_tokens) const;

 private:
  DurationNs AeStepDuration(const StepShape& shape) const;

  ModelSpec model_;
  hw::NpuSpec npu_;
  ParallelismConfig parallelism_;
  CommModel comm_;
  AeDisaggConfig ae_;
  DurationNs step_overhead_ = UsToNs(400);
  // Fixed by the model spec, so computed once instead of on every step.
  double active_params_ = 0.0;
  double dense_weight_bytes_ = 0.0;
};

}  // namespace deepserve::model

#endif  // DEEPSERVE_MODEL_COST_MODEL_H_
