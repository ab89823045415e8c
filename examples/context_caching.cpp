// Explicit context caching through RTC's ID-based index (§4.3).
//
// A multi-turn agent session: the first turn registers its long context under
// a caching id; every later turn names the same id and reuses the preserved
// KV (MatchByID), cutting TTFT even when the implicit prefix-token path would
// also hit. Demonstrates the two match APIs side by side plus tier demotion:
// after pressure pushes the context out of HBM, populate brings it back.

#include <cstdio>

#include "common/rng.h"
#include "common/time_units.h"
#include "flowserve/engine.h"
#include "sim/simulator.h"

using namespace deepserve;

int main() {
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Llama3_8B();
  config.parallelism = {1, 1, 1};
  flowserve::Engine engine(&sim, config);

  // A long shared agent context (tool schemas, memory, instructions).
  Rng rng(77);
  std::vector<TokenId> context;
  for (int i = 0; i < 6144; ++i) {
    context.push_back(static_cast<TokenId>(rng.UniformInt(256, 100000)));
  }

  auto turn = [&](workload::RequestId id, int question_tokens) {
    workload::RequestSpec spec;
    spec.id = id;
    spec.arrival = sim.Now();
    spec.context_id = "agent-session-7";
    std::vector<TokenId> tokens = context;
    for (int i = 0; i < question_tokens; ++i) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 100000)));
    }
    spec.prompt = std::move(tokens);
    spec.decode_len = 64;
    engine.Submit(spec,
                  {[](const flowserve::Sequence& seq) {
                    std::printf("turn %llu: TTFT %.0f ms, reused %lld / %lld prompt tokens\n",
                                static_cast<unsigned long long>(seq.request_id),
                                NsToMs(seq.first_token_time - seq.arrival),
                                static_cast<long long>(seq.reused_tokens),
                                static_cast<long long>(seq.prompt_len()));
                  }});
    sim.Run();
  };

  std::printf("multi-turn agent session with explicit context caching:\n\n");
  turn(1, 32);   // cold: prefills the whole context
  turn(2, 48);   // warm: MatchByID reuses the preserved context KV
  turn(3, 256);  // warm with a longer question

  const auto& rtc_stats = engine.rtc().stats();
  std::printf("\nRTC: %lld hits / %lld misses, token hit rate %.0f%%, "
              "%lld populates, index holds %zu nodes\n",
              static_cast<long long>(rtc_stats.match_hits),
              static_cast<long long>(rtc_stats.match_misses),
              100.0 * rtc_stats.TokenHitRate(),
              static_cast<long long>(rtc_stats.populates), engine.rtc().index_nodes());
  return 0;
}
