// Ablation (§4.5) — operator-level (attention-expert) disaggregation.
//
// Mixtral-8x7B: a colocated MoE engine vs an attention-expert-disaggregated
// pair (same TP). AE disaggregation frees the attention TE's HBM of expert
// weights (more KV capacity -> larger batches) and pipelines the per-layer
// stages across the two devices. We sweep decode batch size and report TPOT
// and per-engine KV capacity, plus link-bandwidth sensitivity.

#include <cstdio>

#include "bench/common.h"
#include "flowserve/engine.h"

namespace deepserve {
namespace {

double MeasureTpot(bool ae, int batch, double link_gbps = 90.0) {
  sim::Simulator sim;
  if (auto* session = bench::ObsSession::active()) {
    session->Attach(sim);
  }
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Mixtral8x7B();
  config.npu_spec = hw::NpuSpec::Gen2();
  config.parallelism = {4, 1, 1};
  config.enable_prefix_caching = false;
  config.max_batch_seqs = batch;
  config.ae_disagg.enabled = ae;
  config.ae_disagg.activation_link_gbps = link_gbps;
  flowserve::Engine engine(&sim, config);
  Rng rng(3);
  workload::MetricsCollector metrics;
  for (int i = 0; i < batch; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.decode_len = 129;
    std::vector<TokenId> tokens;
    for (int j = 0; j < 1024; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 30000)));
    }
    spec.prompt = std::move(tokens);
    engine.Submit(spec, nullptr, [&metrics, spec](const flowserve::Sequence& seq) {
      workload::RequestRecord record;
      record.id = spec.id;
      record.arrival = 0;
      record.first_token = seq.first_token_time;
      record.completion = seq.finish_time;
      record.prefill_len = spec.prefill_len();
      record.decode_len = spec.decode_len;
      metrics.Record(record);
    });
  }
  sim.Run();
  return metrics.tpot_ms().mean();
}

int64_t KvCapacity(bool ae) {
  sim::Simulator sim;
  if (auto* session = bench::ObsSession::active()) {
    session->Attach(sim);
  }
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Mixtral8x7B();
  config.parallelism = {4, 1, 1};
  config.ae_disagg.enabled = ae;
  flowserve::Engine engine(&sim, config);
  return engine.kv_block_capacity() * config.block_size;
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  PrintHeader("Ablation: attention-expert disaggregation (Mixtral-8x7B TP=4)");
  std::printf("KV capacity per instance: colocated %lld tokens, AE-disaggregated %lld tokens\n",
              static_cast<long long>(deepserve::KvCapacity(false)),
              static_cast<long long>(deepserve::KvCapacity(true)));
  std::printf("\n%8s %16s %16s\n", "batch", "coloc TPOT(ms)", "AE TPOT(ms)");
  PrintRule();
  for (int batch : {8, 32, 64, 128}) {
    std::printf("%8d %16.2f %16.2f\n", batch, deepserve::MeasureTpot(false, batch),
                deepserve::MeasureTpot(true, batch));
  }
  std::printf("\nLink sensitivity (batch 64): AE TPOT over activation-link bandwidth\n");
  std::printf("%12s %14s\n", "link GB/s", "AE TPOT(ms)");
  PrintRule();
  for (double gbps : {200.0, 90.0, 25.0, 5.0, 1.0}) {
    std::printf("%12.0f %14.2f\n", gbps, deepserve::MeasureTpot(true, 64, gbps));
  }
  PrintRule();
  std::printf("AE disaggregation wins while the activation link keeps up (SuperPod-\n"
              "class fabric); a slow link turns the per-layer round trips into the\n"
              "bottleneck — why the paper targets SuperPod for this deployment.\n");
  return 0;
}
