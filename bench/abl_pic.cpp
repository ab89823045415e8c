// Ablation (§4.3) — position-independent caching (EPIC-style).
//
// RAG workload: prompts assemble K cached document chunks in arbitrary order
// behind a fresh question. Prefix caching alone only matches when the order
// happens to repeat; PIC rediscovers every chunk by content and discounts its
// prefill compute (paying a boundary-recompute fraction). Reported: TTFT and
// reuse per configuration.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "flowserve/engine.h"

namespace deepserve {
namespace {

struct RagResult {
  double ttft_p50_ms = 0;
  int64_t prefix_reused = 0;
  int64_t pic_reused = 0;
};

RagResult RunRag(bool prefix_caching, bool pic) {
  sim::Simulator sim;
  if (auto* session = bench::ObsSession::active()) {
    session->Attach(sim);
  }
  flowserve::EngineConfig config = bench::Engine34BTp4(flowserve::EngineRole::kColocated);
  config.enable_prefix_caching = prefix_caching;
  config.enable_pic = pic;
  flowserve::Engine engine(&sim, config);
  Rng rng(11);

  // A corpus of 16 document chunks (512 tokens each).
  std::vector<std::vector<TokenId>> docs;
  for (int d = 0; d < 16; ++d) {
    std::vector<TokenId> doc;
    for (int j = 0; j < 512; ++j) {
      doc.push_back(static_cast<TokenId>(1000 + 4000 * d + j % 3500));
    }
    docs.push_back(std::move(doc));
  }
  // Warm-up queries touch every document once.
  workload::RequestId next_id = 1;
  for (const auto& doc : docs) {
    workload::RequestSpec warm;
    warm.id = next_id++;
    warm.prompt = doc;
    warm.decode_len = 4;
    engine.Submit(warm, {});
  }
  sim.Run();

  // 32 RAG queries: 4 random docs in random order + a 64-token question.
  SampleStats ttft;
  for (int q = 0; q < 32; ++q) {
    workload::RequestSpec spec;
    spec.id = next_id++;
    std::vector<TokenId> tokens;
    for (int k = 0; k < 4; ++k) {
      const auto& doc = docs[static_cast<size_t>(rng.UniformInt(0, 15))];
      tokens.insert(tokens.end(), doc.begin(), doc.end());
    }
    for (int j = 0; j < 64; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 120000)));
    }
    spec.prompt = std::move(tokens);
    spec.decode_len = 32;
    TimeNs submit = sim.Now();
    TimeNs first = 0;
    engine.Submit(spec, {[&](const flowserve::Sequence& seq) { first = seq.first_token_time; }});
    sim.Run();
    ttft.Add(NsToMs(first - submit));
  }
  RagResult result;
  result.ttft_p50_ms = ttft.p50();
  result.prefix_reused = engine.stats().reused_tokens;
  result.pic_reused = engine.stats().pic_reused_tokens;
  return result;
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  using deepserve::bench::PrintHeader;
  using deepserve::bench::PrintRule;
  PrintHeader("Ablation: position-independent caching on a RAG workload (34B TP=4)");
  std::printf("%-22s %12s %14s %12s\n", "config", "ttft-p50", "prefix-reuse", "pic-reuse");
  PrintRule();
  auto none = deepserve::RunRag(false, false);
  std::printf("%-22s %10.0fms %14lld %12lld\n", "no caching", none.ttft_p50_ms,
              static_cast<long long>(none.prefix_reused),
              static_cast<long long>(none.pic_reused));
  auto prefix = deepserve::RunRag(true, false);
  std::printf("%-22s %10.0fms %14lld %12lld\n", "prefix only", prefix.ttft_p50_ms,
              static_cast<long long>(prefix.prefix_reused),
              static_cast<long long>(prefix.pic_reused));
  auto both = deepserve::RunRag(true, true);
  std::printf("%-22s %10.0fms %14lld %12lld\n", "prefix + PIC", both.ttft_p50_ms,
              static_cast<long long>(both.prefix_reused),
              static_cast<long long>(both.pic_reused));
  PrintRule();
  std::printf("Prefix caching only helps when document ORDER repeats; PIC rediscovers\n"
              "chunks by content at any position (cost: a %d%%-of-chunk boundary\n"
              "recompute), cutting RAG TTFT by ~%.0f%% over prefix-only here.\n",
              15, 100.0 * (1.0 - both.ttft_p50_ms / prefix.ttft_p50_ms));
  return 0;
}
