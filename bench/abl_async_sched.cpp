// Ablation (§4.2) — asynchronous execution.
//
// Decomposes one decoding iteration into NPU time vs CPU scheduling time for
// each engine feature level at fixed batch sizes, showing how v2's async
// scheduling hides CPU work behind the NPU (the mechanism behind Fig. 3).

#include <cstdio>

#include "bench/common.h"
#include "common/time_units.h"
#include "flowserve/engine.h"

namespace deepserve {
namespace {

void RunLevel(const char* name, const flowserve::EngineFeatures& features, int batch) {
  sim::Simulator sim;
  if (auto* session = bench::ObsSession::active()) {
    session->Attach(sim);
  }
  flowserve::EngineConfig config = bench::Engine34BTp4(flowserve::EngineRole::kColocated);
  config.features = features;
  config.enable_prefix_caching = false;
  config.max_batch_seqs = batch;
  flowserve::Engine engine(&sim, config);
  Rng rng(9);
  int done = 0;
  for (int i = 0; i < batch; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.decode_len = 129;
    std::vector<TokenId> tokens;
    for (int j = 0; j < 512; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 50000)));
    }
    spec.prompt = std::move(tokens);
    engine.Submit(spec, {nullptr, [&](const flowserve::Sequence&) { ++done; }});
  }
  sim.Run();
  const auto& stats = engine.stats();
  double wall_s = NsToS(sim.Now());
  double npu_s = NsToS(stats.npu_busy);
  double cpu_s = NsToS(stats.cpu_sched_total);
  double stall_s = NsToS(stats.cpu_stall);
  std::printf("%-4s %6d %9.2f %9.2f %9.2f %9.2f %10.1f%%\n", name, batch, wall_s, npu_s,
              cpu_s, stall_s, 100.0 * npu_s / wall_s);
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  PrintHeader("Ablation: async execution — where the iteration time goes (34B TP=4)");
  std::printf("%-4s %6s %9s %9s %9s %9s %11s\n", "ver", "batch", "wall(s)", "npu(s)",
              "cpu(s)", "stall(s)", "npu-util");
  PrintRule();
  for (int batch : {32, 128, 256}) {
    deepserve::RunLevel("v1", deepserve::flowserve::EngineFeatures::V1(), batch);
    deepserve::RunLevel("v2", deepserve::flowserve::EngineFeatures::V2(), batch);
    deepserve::RunLevel("v3", deepserve::flowserve::EngineFeatures::V3(), batch);
    PrintRule();
  }
  std::printf("v1 serializes CPU scheduling with NPU execution (stall == cpu); v2/v3\n"
              "overlap them, so NPU utilization approaches 100%% and the residual\n"
              "stall is only the CPU time exceeding the NPU step.\n");
  return 0;
}
