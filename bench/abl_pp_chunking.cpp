// Ablation (§4.2 PP claim) — chunked-prefill spreading across micro-batches.
//
// "With chunked prefill enabled, the scheduler distributes chunks across
// consecutive micro-batches, rather than sticking to just one micro-batch.
// This helps reduce TTFT by at least 20%." We run a PP=4 engine with decode
// background traffic and measure the TTFT of a long prefill under both chunk
// placement policies, across prompt lengths and chunk sizes.

#include <cstdio>

#include "bench/common.h"
#include "common/time_units.h"
#include "flowserve/engine.h"

namespace deepserve {
namespace {

double MeasureTtftMs(bool spread, int64_t prompt_len, int64_t chunk) {
  sim::Simulator sim;
  if (auto* session = bench::ObsSession::active()) {
    session->Attach(sim);
  }
  flowserve::EngineConfig config = bench::Engine34BTp4(flowserve::EngineRole::kColocated);
  config.parallelism = {2, 4, 1};  // PP = 4
  config.prefill_chunk_tokens = chunk;
  config.pp_spread_chunks = spread;
  config.enable_prefix_caching = false;
  flowserve::Engine engine(&sim, config);

  // Background decodes keep every micro-batch occupied.
  Rng rng(3);
  for (int i = 0; i < 16; ++i) {
    workload::RequestSpec bg;
    bg.id = static_cast<workload::RequestId>(100 + i);
    bg.decode_len = 2048;
    std::vector<TokenId> tokens;
    for (int j = 0; j < 64; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 50000)));
    }
    bg.prompt = std::move(tokens);
    engine.Submit(bg, nullptr, nullptr);
  }
  TimeNs first = 0;
  workload::RequestSpec spec;
  spec.id = 1;
  spec.decode_len = 2;
  std::vector<TokenId> tokens;
  for (int64_t j = 0; j < prompt_len; ++j) {
    tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 50000)));
  }
  spec.prompt = std::move(tokens);
  TimeNs submit_at = MsToNs(200);  // after the pipeline fills
  sim.ScheduleAt(submit_at, [&] {
    engine.Submit(spec, [&](const flowserve::Sequence& seq) { first = seq.first_token_time; },
                  nullptr);
  });
  sim.RunUntil(SToNs(600));
  return first > 0 ? NsToMs(first - submit_at) : -1.0;
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  PrintHeader("Ablation: PP chunk spreading vs sticky micro-batch (PP=4, 34B)");
  std::printf("%10s %8s %14s %14s %10s\n", "prompt", "chunk", "sticky-ttft", "spread-ttft",
              "reduction");
  PrintRule();
  for (int64_t prompt : {2048ll, 4096ll, 8192ll}) {
    for (int64_t chunk : {256ll, 512ll}) {
      double sticky = deepserve::MeasureTtftMs(false, prompt, chunk);
      double spread = deepserve::MeasureTtftMs(true, prompt, chunk);
      std::printf("%10lld %8lld %12.0fms %12.0fms %9.0f%%\n", static_cast<long long>(prompt),
                  static_cast<long long>(chunk), sticky, spread,
                  100.0 * (1.0 - spread / sticky));
    }
  }
  PrintRule();
  std::printf("Paper claim: spreading chunks across consecutive micro-batches cuts\n"
              "TTFT by at least 20%%.\n");
  return 0;
}
