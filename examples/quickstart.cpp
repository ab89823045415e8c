// Quickstart: serve a few chat completions on a single FlowServe engine.
//
// This is the smallest useful DeepServe program: build an engine for a model
// preset, submit prompts (through the real tokenizer), and read back
// per-request latency metrics. Everything runs on the deterministic virtual
// clock — the printed latencies are simulated serving latencies on the
// modelled Ascend hardware, and re-running always reproduces them.

#include <cstdio>

#include "common/time_units.h"
#include "flowserve/engine.h"
#include "sim/simulator.h"
#include "workload/request.h"

using namespace deepserve;

int main() {
  sim::Simulator sim;

  // A 34B-class model sharded TP=4 across Gen2 NPUs — the paper's standard
  // serving instance.
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Yi34B();
  config.npu_spec = hw::NpuSpec::Gen2();
  config.parallelism = {4, 1, 1};
  flowserve::Engine engine(&sim, config);

  const char* prompts[] = {
      "Summarize the DeepServe paper in three sentences for a systems audience",
      "Summarize the DeepServe paper in three sentences but make it rhyme",
      "Write a haiku about prefill and decode disaggregation in the cloud",
  };
  std::printf("submitting %zu requests to %s (%s)\n\n", std::size(prompts),
              config.model.name.c_str(), config.parallelism.ToString().c_str());

  workload::RequestId next_id = 1;
  TimeNs arrival = 0;
  for (const char* text : prompts) {
    workload::RequestSpec spec;
    spec.id = next_id++;
    // Stagger arrivals so later requests can reuse the preserved KV of
    // earlier ones (the shared system prompt).
    arrival += SToNs(3.0);
    spec.arrival = arrival;
    // Pad the prompt to a realistic context (pretend there is a long system
    // prompt ahead of the user text). The first two prompts share it, so the
    // second request hits the prefix cache.
    std::vector<TokenId> padded = engine.tokenizer().Encode(
        "You are a helpful careful assistant running on DeepServe. Answer precisely.");
    for (int i = 0; i < 40; ++i) {
      padded.insert(padded.end(), padded.begin(), padded.begin() + 8);
    }
    std::vector<TokenId> text_tokens = engine.tokenizer().Encode(text);
    padded.insert(padded.end(), text_tokens.begin(), text_tokens.end());
    spec.prompt = std::move(padded);
    spec.decode_len = 96;

    sim.ScheduleAt(arrival, [&engine, spec] {
      engine.Submit(
        spec,
        [](const flowserve::Sequence& seq) {
          std::printf("req %llu: first token at %.1f ms (reused %lld cached tokens)\n",
                      static_cast<unsigned long long>(seq.request_id),
                      NsToMs(seq.first_token_time - seq.arrival),
                      static_cast<long long>(seq.reused_tokens));
        },
        [](const flowserve::Sequence& seq) {
          double tpot = NsToMs(seq.finish_time - seq.first_token_time) /
                        static_cast<double>(seq.decode_target - 1);
          std::printf("req %llu: done at %.1f ms, TPOT %.2f ms\n",
                      static_cast<unsigned long long>(seq.request_id),
                      NsToMs(seq.finish_time - seq.arrival), tpot);
          });
    });
  }

  sim.Run();

  const auto& stats = engine.stats();
  std::printf("\nengine: %lld steps, %lld prefill tokens, %lld decode tokens, "
              "%lld reused tokens, NPU busy %.2f s (virtual)\n",
              static_cast<long long>(stats.steps),
              static_cast<long long>(stats.prefill_tokens_processed),
              static_cast<long long>(stats.decode_tokens_generated),
              static_cast<long long>(stats.reused_tokens), NsToS(stats.npu_busy));
  return 0;
}
