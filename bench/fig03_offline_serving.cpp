// Figure 3 — FLOWSERVE Offline Serving Performance.
//
// "We run a 34B model with TP=4. The left has a prefill sequence length of 2K
// and the [right] is 4K. We run 256 decoding iterations and report the average
// TPOT and decoding throughput." Three engine versions (v1/v2/v3) trace the
// async-scheduling + IPC optimization (v1->v2, >2x at the 50 ms TPOT SLA) and
// the data-structure/sampling optimization (v2->v3, ~20%).
//
// For each version we sweep the decode batch size, report the (throughput,
// TPOT) frontier, and finally the maximum decode throughput attainable with
// TPOT <= 50 ms — the paper's headline comparison.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "flowserve/engine.h"

namespace deepserve {
namespace {

struct Point {
  int batch;
  double tpot_ms;
  double throughput;  // decode tokens/s
};

Point RunOffline(const flowserve::EngineFeatures& features, int batch, int64_t prefill_len) {
  sim::Simulator sim;
  if (auto* session = bench::ObsSession::active()) {
    session->Attach(sim);
  }
  flowserve::EngineConfig config = bench::Engine34BTp4(flowserve::EngineRole::kColocated);
  config.features = features;
  config.enable_prefix_caching = false;  // offline benchmark: no reuse
  config.max_batch_seqs = batch;
  flowserve::Engine engine(&sim, config);

  const int64_t decode_iters = 256;
  workload::MetricsCollector metrics;
  Rng rng(42);
  for (int i = 0; i < batch; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.arrival = 0;
    spec.decode_len = decode_iters + 1;  // first token comes from prefill
    std::vector<TokenId> tokens;
    tokens.reserve(static_cast<size_t>(prefill_len));
    for (int64_t j = 0; j < prefill_len; ++j) {
      tokens.push_back(static_cast<TokenId>(rng.UniformInt(256, 60000)));
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
  Point point;
  point.batch = batch;
  point.tpot_ms = metrics.tpot_ms().mean();
  // Decode throughput over the decode phase (first token -> last completion).
  double decode_window_s =
      NsToS(metrics.last_completion()) - NsToS(metrics.ttft_ms().min() / 1e3 * 1e9);
  double decode_tokens = static_cast<double>(batch) * static_cast<double>(decode_iters);
  point.throughput = decode_tokens / std::max(1e-9, decode_window_s);
  return point;
}

void RunPanel(int64_t prefill_len) {
  bench::PrintHeader("Figure 3 panel: prefill=" + std::to_string(prefill_len) +
                     ", 34B TP=4, 256 decode iterations");
  const std::vector<std::pair<const char*, flowserve::EngineFeatures>> versions = {
      {"v1", flowserve::EngineFeatures::V1()},
      {"v2", flowserve::EngineFeatures::V2()},
      {"v3", flowserve::EngineFeatures::V3()},
  };
  const std::vector<int> batches = {8, 12, 16, 20, 24, 28, 32, 40, 48, 64, 96, 128, 160, 192, 224, 256};
  std::printf("%-4s %-6s %12s %16s\n", "ver", "batch", "TPOT(ms)", "decode tok/s");
  bench::PrintRule();
  for (const auto& [name, features] : versions) {
    double best_tput_under_sla = 0;
    for (int batch : batches) {
      Point p = RunOffline(features, batch, prefill_len);
      std::printf("%-4s %-6d %12.2f %16.1f\n", name, p.batch, p.tpot_ms, p.throughput);
      if (p.tpot_ms <= 50.0) {
        best_tput_under_sla = std::max(best_tput_under_sla, p.throughput);
      }
    }
    std::printf("%-4s max decode throughput @ TPOT<=50ms: %.1f tok/s\n", name,
                best_tput_under_sla);
    bench::PrintRule();
  }
}

}  // namespace
}  // namespace deepserve

int main(int argc, char** argv) {
  deepserve::bench::ObsSession obs(argc, argv);
  deepserve::RunPanel(2048);
  deepserve::RunPanel(4096);

  // Paper claim check: v2 > 2x v1 at the 50 ms SLA; v3 ~ +20% over v2.
  auto best = [&](const deepserve::flowserve::EngineFeatures& f) {
    double out = 0;
    for (int batch : {8, 12, 16, 20, 24, 28, 32, 40, 48, 64, 96, 128, 160, 192, 224, 256}) {
      auto p = deepserve::RunOffline(f, batch, 2048);
      if (p.tpot_ms <= 50.0) {
        out = std::max(out, p.throughput);
      }
    }
    return out;
  };
  double v1 = best(deepserve::flowserve::EngineFeatures::V1());
  double v2 = best(deepserve::flowserve::EngineFeatures::V2());
  double v3 = best(deepserve::flowserve::EngineFeatures::V3());
  std::printf("\nSummary @ TPOT<=50ms (prefill 2K): v1=%.0f v2=%.0f (%.2fx of v1) "
              "v3=%.0f (+%.0f%% over v2)\n",
              v1, v2, v2 / v1, v3, (v3 / v2 - 1) * 100);
  return 0;
}
