#include "model/cost_model.h"

#include <algorithm>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::model {

int64_t AttendedTokens(int64_t past_len, int64_t chunk_len) {
  DS_CHECK_GE(past_len, 0);
  DS_CHECK_GE(chunk_len, 0);
  return chunk_len * past_len + chunk_len * (chunk_len + 1) / 2;
}

CostModel::CostModel(ModelSpec model, hw::NpuSpec npu, ParallelismConfig parallelism,
                     CommModel comm)
    : model_(std::move(model)), npu_(std::move(npu)), parallelism_(parallelism), comm_(comm),
      active_params_(static_cast<double>(model_.ActiveParamCount())),
      dense_weight_bytes_(static_cast<double>(model_.WeightBytes())) {
  DS_CHECK_GE(parallelism_.tp, 1);
  DS_CHECK_GE(parallelism_.pp, 1);
  DS_CHECK_GE(parallelism_.dp, 1);
}

double CostModel::WeightReadBytes(double new_tokens) const {
  if (!model_.is_moe()) {
    return dense_weight_bytes_;
  }
  // MoE: attention weights always stream; the batch touches at most
  // tokens * top-k distinct experts per layer (capped at the expert count).
  double touched = std::min(static_cast<double>(model_.num_experts),
                            new_tokens * static_cast<double>(model_.experts_per_token));
  double per_layer = static_cast<double>(model_.AttentionParamsPerLayer()) +
                     touched * static_cast<double>(model_.ExpertParamsPerLayer());
  double embeddings = 2.0 * static_cast<double>(model_.vocab_size) * model_.hidden_dim;
  return (per_layer * model_.num_layers + embeddings) * model_.bytes_per_param;
}

DurationNs CostModel::StepDuration(const StepShape& shape) const {
  if (shape.empty()) {
    return 0;
  }
  if (ae_.enabled && model_.is_moe()) {
    return AeStepDuration(shape);
  }
  const double params = active_params_;
  const double new_tokens = static_cast<double>(shape.prefill_tokens + shape.decode_seqs);

  // --- Compute side ---------------------------------------------------------
  // Dense matmuls: ~2 FLOPs per (active) parameter per token.
  double flops = 2.0 * params * new_tokens;
  // Attention score/value matmuls: 4 * q_dim * attended per layer, both for
  // prefill chunks and for decode steps (decode attends over full context).
  double q_dim = static_cast<double>(model_.num_heads) * model_.head_dim;
  double attended = static_cast<double>(shape.prefill_attended_tokens) +
                    static_cast<double>(shape.decode_context_tokens);
  flops += 4.0 * q_dim * attended * static_cast<double>(model_.num_layers);

  // --- Memory side ----------------------------------------------------------
  // Weights stream through HBM once per step regardless of batch (touched
  // experts only for MoE); KV cache is read for every attended token and
  // written for every new token.
  double kv_per_token = static_cast<double>(model_.KvBytesPerToken());
  double mem_bytes = WeightReadBytes(new_tokens);
  mem_bytes += attended * kv_per_token;        // KV reads
  mem_bytes += new_tokens * kv_per_token;      // KV writes

  // Shard over the instance: TP splits both terms; PP splits layers, and this
  // function returns per-stage time.
  const double shards = static_cast<double>(parallelism_.tp * parallelism_.pp);
  double compute_s = flops / shards / npu_.effective_flops();
  double memory_s = mem_bytes / shards / npu_.effective_hbm_bps();
  DurationNs roofline = SToNs(std::max(compute_s, memory_s));

  // --- TP collectives -------------------------------------------------------
  DurationNs comm = 0;
  if (parallelism_.tp > 1) {
    // Two all-reduces of hidden-size activations per layer per token.
    double ar_bytes_per_layer = 2.0 * new_tokens * static_cast<double>(model_.hidden_dim) *
                                model_.bytes_per_param;
    double wire = 2.0 * static_cast<double>(parallelism_.tp - 1) /
                  static_cast<double>(parallelism_.tp) * ar_bytes_per_layer;
    int layers_per_stage = std::max(1, model_.num_layers / parallelism_.pp);
    comm = static_cast<DurationNs>(
        static_cast<double>(layers_per_stage) *
        (SToNs(wire / (comm_.hccs_gbps * 1e9)) +
         static_cast<double>(2 * (parallelism_.tp - 1)) *
             static_cast<double>(comm_.per_hop_latency)));
  }

  return roofline + comm + step_overhead_;
}

DurationNs CostModel::AeStepDuration(const StepShape& shape) const {
  const double new_tokens = static_cast<double>(shape.prefill_tokens + shape.decode_seqs);
  const double shards = static_cast<double>(parallelism_.tp * parallelism_.pp);
  const double layers = static_cast<double>(model_.num_layers);
  double q_dim = static_cast<double>(model_.num_heads) * model_.head_dim;
  double attended = static_cast<double>(shape.prefill_attended_tokens) +
                    static_cast<double>(shape.decode_context_tokens);
  double kv_per_token = static_cast<double>(model_.KvBytesPerToken());
  double bpp = static_cast<double>(model_.bytes_per_param);

  // Per-layer attention stage (on the attention TE): projections + attention
  // matmuls + KV traffic.
  double attn_flops_l = 2.0 * static_cast<double>(model_.AttentionParamsPerLayer()) *
                            new_tokens +
                        4.0 * q_dim * attended;
  double attn_bytes_l = static_cast<double>(model_.AttentionParamsPerLayer()) * bpp +
                        (attended + new_tokens) * kv_per_token / layers;
  double attn_l = std::max(attn_flops_l / shards / npu_.effective_flops(),
                           attn_bytes_l / shards / npu_.effective_hbm_bps());

  // Per-layer expert stage (on the expert TE): top-k expert MLPs, reading
  // only the experts this batch routes to.
  double touched = std::min(static_cast<double>(model_.num_experts),
                            new_tokens * static_cast<double>(model_.experts_per_token));
  double expert_flops_l = 2.0 * static_cast<double>(model_.experts_per_token) *
                          static_cast<double>(model_.ExpertParamsPerLayer()) * new_tokens;
  double expert_bytes_l = touched * static_cast<double>(model_.ExpertParamsPerLayer()) * bpp;
  double expert_l = std::max(expert_flops_l / shards / npu_.effective_flops(),
                             expert_bytes_l / shards / npu_.effective_hbm_bps());

  // Per-layer activation round trip between the two TEs.
  double xfer_bytes_l = 2.0 * new_tokens * static_cast<double>(model_.hidden_dim) * bpp;
  double xfer_l = xfer_bytes_l / (ae_.activation_link_gbps * 1e9) +
                  2.0 * NsToS(ae_.per_layer_latency);

  // Layers pipeline across the two TEs: the slowest stage paces the step.
  double step_s = layers * std::max({attn_l, expert_l, xfer_l});
  return SToNs(step_s) + step_overhead_;
}

DurationNs CostModel::PrefillDuration(int64_t prompt_tokens) const {
  StepShape shape;
  shape.prefill_tokens = prompt_tokens;
  shape.prefill_attended_tokens = AttendedTokens(0, prompt_tokens);
  return StepDuration(shape);
}

DurationNs CostModel::DecodeStepDuration(int64_t batch, int64_t avg_context) const {
  StepShape shape;
  shape.decode_seqs = batch;
  shape.decode_context_tokens = batch * avg_context;
  return StepDuration(shape);
}

Bytes CostModel::KvBytesPerTokenPerNpu() const {
  // KV heads shard across TP (GQA heads >= tp assumed; otherwise replicated,
  // which we conservatively ignore), layers shard across PP.
  return model_.KvBytesPerToken() / static_cast<Bytes>(parallelism_.tp * parallelism_.pp);
}

int64_t CostModel::MaxKvTokensPerNpu() const {
  Bytes budget = static_cast<Bytes>(static_cast<double>(npu_.hbm_capacity) * kHbmUtilization);
  Bytes weights = WeightBytesPerNpu(model_, parallelism_);
  if (ae_.enabled && model_.is_moe()) {
    // The attention TE holds only attention-side weights; expert weights live
    // on the expert TE, freeing HBM for KV (the capacity win of operator-
    // level disaggregation).
    int64_t attn_params = (model_.AttentionParamsPerLayer() + 2 * model_.hidden_dim) *
                              model_.num_layers +
                          2ll * model_.vocab_size * model_.hidden_dim;
    weights = static_cast<Bytes>(attn_params) * static_cast<Bytes>(model_.bytes_per_param) /
              static_cast<Bytes>(parallelism_.tp * parallelism_.pp);
  }
  if (weights >= budget) {
    return 0;
  }
  Bytes kv = KvBytesPerTokenPerNpu();
  if (kv == 0) {
    return 0;
  }
  return static_cast<int64_t>((budget - weights) / kv);
}

double EstimateDecodeTokensPerSecond(const ModelSpec& model, const hw::NpuSpec& npu,
                                     const ParallelismConfig& parallelism) {
  if (WeightBytesPerNpu(model, parallelism) >= npu.hbm_capacity) {
    return 0.0;  // weights alone overflow HBM: this generation cannot serve
  }
  // Reference decode step: a healthy continuous batch at a mid-size context.
  // Absolute numbers matter less than the cross-generation ordering, which
  // the roofline preserves for any fixed reference point.
  constexpr int64_t kBatch = 32;
  constexpr int64_t kContext = 1024;
  CostModel cost(model, npu, parallelism);
  DurationNs step = cost.DecodeStepDuration(kBatch, kContext);
  if (step <= 0) {
    return 0.0;
  }
  return static_cast<double>(kBatch) * 1e9 / static_cast<double>(step);
}

double TokensPerSecondPerDollar(const ModelSpec& model, const hw::NpuSpec& npu,
                                const ParallelismConfig& parallelism) {
  double dollar_rate = npu.cost_per_hour * static_cast<double>(parallelism.TotalNpus());
  if (dollar_rate <= 0.0) {
    return 0.0;
  }
  return EstimateDecodeTokensPerSecond(model, npu, parallelism) / dollar_rate;
}

bool FitsHbm(const ModelSpec& model, const hw::NpuSpec& npu,
             const ParallelismConfig& parallelism, int64_t min_kv_tokens) {
  Bytes budget = static_cast<Bytes>(static_cast<double>(npu.hbm_capacity) * kHbmUtilization);
  if (WeightBytesPerNpu(model, parallelism) >= budget) {
    return false;
  }
  CostModel cost(model, npu, parallelism);
  return cost.MaxKvTokensPerNpu() >= min_kv_tokens;
}

}  // namespace deepserve::model
