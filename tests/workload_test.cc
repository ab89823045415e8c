#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "common/types.h"
#include "workload/metrics.h"
#include "workload/request.h"
#include "workload/tracegen.h"

namespace deepserve::workload {
namespace {

TEST(LengthDistributionTest, ConstantWhenCvZero) {
  LengthDistribution dist{500, 0.0, 1, 10000};
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dist.Sample(rng), 500);
  }
}

TEST(LengthDistributionTest, MeanApproximatelyMatches) {
  LengthDistribution dist{2048, 0.3, 1, 100000};
  Rng rng(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(dist.Sample(rng));
  }
  EXPECT_NEAR(sum / n, 2048, 60);
}

TEST(LengthDistributionTest, RespectsClamps) {
  LengthDistribution dist{100, 2.0, 50, 200};
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = dist.Sample(rng);
    EXPECT_GE(v, 50);
    EXPECT_LE(v, 200);
  }
}

TEST(TraceGeneratorTest, PoissonArrivalsMatchRps) {
  TraceConfig config;
  config.rps = 5.0;
  config.duration_s = 200.0;
  config.seed = 11;
  TraceGenerator gen(config);
  auto trace = gen.Generate();
  EXPECT_NEAR(static_cast<double>(trace.size()), 1000.0, 100.0);
  // Arrivals sorted and within the horizon.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
  EXPECT_LT(trace.back().arrival, SToNs(200.0));
}

TEST(TraceGeneratorTest, DeterministicAcrossInstances) {
  TraceConfig config = TraceGenerator::InternalTrace(1.0, 30.0, 99);
  auto a = TraceGenerator(config).Generate();
  auto b = TraceGenerator(config).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    EXPECT_EQ(a[i].decode_len, b[i].decode_len);
  }
}

TEST(TraceGeneratorTest, InternalTraceMatchesPaperStatistics) {
  // "roughly 2K input with 200 output" (Fig. 4 caption).
  auto trace = TraceGenerator(TraceGenerator::InternalTrace(4.0, 300.0)).Generate();
  ASSERT_GT(trace.size(), 500u);
  double in_sum = 0;
  double out_sum = 0;
  for (const auto& req : trace) {
    in_sum += static_cast<double>(req.prefill_len());
    out_sum += static_cast<double>(req.decode_len);
  }
  EXPECT_NEAR(in_sum / static_cast<double>(trace.size()), 2048, 256);
  EXPECT_NEAR(out_sum / static_cast<double>(trace.size()), 200, 40);
}

TEST(TraceGeneratorTest, SharedPrefixesActuallyShared) {
  TraceConfig config = TraceGenerator::CodeGenTrace(2.0, 120.0, 5);
  auto trace = TraceGenerator(config).Generate();
  ASSERT_GT(trace.size(), 50u);
  // Count pairs sharing a first token: with a 64-prefix Zipf pool this must
  // be common.
  int shared_first = 0;
  for (size_t i = 1; i < trace.size(); ++i) {
    if (!trace[i].prompt.empty() && trace[i].prompt[0] == trace[0].prompt[0]) {
      ++shared_first;
    }
  }
  EXPECT_GT(shared_first, 0);
  // And deeper: two requests from the most popular prefix share >= 64 tokens.
  int deep_pairs = 0;
  for (size_t i = 0; i + 1 < trace.size() && deep_pairs == 0; ++i) {
    for (size_t j = i + 1; j < trace.size(); ++j) {
      size_t common = 0;
      size_t limit = std::min(trace[i].prompt.size(), trace[j].prompt.size());
      while (common < limit && trace[i].prompt[common] == trace[j].prompt[common]) {
        ++common;
      }
      if (common >= 64) {
        ++deep_pairs;
        break;
      }
    }
  }
  EXPECT_GT(deep_pairs, 0);
}

TEST(TraceGeneratorTest, NoSharingWhenPoolDisabled) {
  TraceConfig config;
  config.rps = 10.0;
  config.duration_s = 10.0;
  config.prefix_pool_size = 0;
  config.prefill = LengthDistribution{512, 0.0, 512, 512};
  auto trace = TraceGenerator(config).Generate();
  ASSERT_GE(trace.size(), 2u);
  // Random prompts should differ immediately (overwhelmingly likely).
  EXPECT_NE(trace[0].prompt, trace[1].prompt);
}

TEST(TraceGeneratorTest, FixedBatchShape) {
  auto batch = TraceGenerator::FixedBatch(8, 1024, 128);
  ASSERT_EQ(batch.size(), 8u);
  for (const auto& req : batch) {
    EXPECT_EQ(req.arrival, 0);
    EXPECT_EQ(req.prefill_len(), 1024);
    EXPECT_EQ(req.decode_len, 128);
  }
}

// FNV-1a over every request's id, arrival, decode length, prompt length and
// prompt tokens: any change to a generated trace changes the hash.
uint64_t TraceHash(const std::vector<RequestSpec>& trace) {
  uint64_t hash = 1469598103934665603ull;
  auto fold = [&hash](int64_t v) {
    hash ^= static_cast<uint64_t>(v);
    hash *= 1099511628211ull;
  };
  for (const RequestSpec& req : trace) {
    fold(static_cast<int64_t>(req.id));
    fold(req.arrival);
    fold(req.decode_len);
    fold(req.prefill_len());
    for (TokenId token : req.prompt) {
      fold(token);
    }
  }
  return hash;
}

// Pins the generated traces at fixed seeds, so a refactor of the generator
// cannot shift any arrival, length or token unnoticed.
TEST(TraceGeneratorTest, TraceContentIsPinned) {
  TraceConfig internal = TraceGenerator::InternalTrace(2.0, 20.0, 11);
  TraceConfig codegen = TraceGenerator::CodeGenTrace(2.0, 20.0, 12);
  EXPECT_EQ(TraceHash(TraceGenerator(internal).Generate()), 0xc5195ff3a28c5375ull);
  EXPECT_EQ(TraceHash(TraceGenerator(codegen).Generate()), 0x18e8150f7c349ac7ull);
  EXPECT_EQ(TraceHash(TraceGenerator(internal).GenerateBursty(1.0, 4.0, 10.0)),
            0x3686571f5e84f34dull);
  EXPECT_EQ(TraceHash(TraceGenerator(codegen).GenerateBursty(0.5, 3.0, 8.0, 3.0)),
            0xb7273fa902daf8e2ull);
  EXPECT_EQ(TraceHash(TraceGenerator::FixedBatch(8, 512, 64)), 0xa590c7a39c97b909ull);
  EXPECT_EQ(TraceHash(TraceGenerator::FixedBatch(4, 100, 10, 3)), 0x8a80ee45f264b318ull);
}

TEST(RequestRecordTest, DerivedMetrics) {
  RequestRecord r;
  r.arrival = SToNs(1.0);
  r.first_token = SToNs(1.5);
  r.completion = SToNs(3.5);
  r.prefill_len = 2048;
  r.decode_len = 101;
  EXPECT_DOUBLE_EQ(r.ttft_ms(), 500.0);
  EXPECT_DOUBLE_EQ(r.jct_ms(), 2500.0);
  EXPECT_DOUBLE_EQ(r.tpot_ms(), 2000.0 / 100.0);
}

TEST(MetricsCollectorTest, AggregatesAndThroughput) {
  MetricsCollector collector;
  for (int i = 0; i < 10; ++i) {
    RequestRecord r;
    r.id = static_cast<RequestId>(i);
    r.arrival = SToNs(static_cast<double>(i));
    r.first_token = r.arrival + MsToNs(100);
    r.completion = r.first_token + SToNs(1.0);
    r.prefill_len = 1000;
    r.decode_len = 100;
    collector.Record(r);
  }
  EXPECT_EQ(collector.completed(), 10u);
  EXPECT_DOUBLE_EQ(collector.ttft_ms().p50(), 100.0);
  // 1000 tokens over [0, 10.1] seconds.
  EXPECT_NEAR(collector.DecodeThroughput(), 1000.0 / 10.1, 0.5);
  EXPECT_NEAR(collector.RequestThroughput(), 10.0 / 10.1, 0.05);
}

TEST(MetricsCollectorTest, SloAttainment) {
  MetricsCollector collector;
  auto add = [&](double ttft_ms, double tpot_ms) {
    RequestRecord r;
    r.arrival = 0;
    r.first_token = MsToNs(ttft_ms);
    r.decode_len = 11;
    r.completion = r.first_token + MsToNs(tpot_ms * 10);
    collector.Record(r);
  };
  add(100, 20);   // meets both
  add(1000, 20);  // misses TTFT
  add(100, 80);   // misses TPOT
  add(900, 90);   // misses both
  EXPECT_DOUBLE_EQ(collector.SloAttainment(500, 50), 0.25);
  EXPECT_DOUBLE_EQ(collector.SloAttainment(500, -1), 0.5);
  EXPECT_DOUBLE_EQ(collector.SloAttainment(-1, -1), 1.0);
}

TEST(MetricsCollectorTest, EmptyCollectorSafe) {
  MetricsCollector collector;
  EXPECT_DOUBLE_EQ(collector.DecodeThroughput(), 0.0);
  EXPECT_DOUBLE_EQ(collector.SloAttainment(100, 100), 0.0);
  EXPECT_FALSE(collector.Summary().empty());
}

}  // namespace
}  // namespace deepserve::workload
