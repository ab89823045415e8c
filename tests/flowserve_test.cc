#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "flowserve/engine.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/request.h"
#include "workload/tracegen.h"

namespace deepserve::flowserve {
namespace {

using workload::RequestSpec;

// A small fast model configuration for unit tests.
EngineConfig TestConfig() {
  EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.max_tokens_per_step = 4096;
  config.prefill_chunk_tokens = 512;
  config.kv_block_capacity_override = 4096;
  return config;
}

RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode,
                        TokenId base = 1000) {
  RequestSpec spec;
  spec.id = id;
  spec.arrival = 0;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  tokens.reserve(static_cast<size_t>(prefill));
  for (int64_t i = 0; i < prefill; ++i) {
    tokens.push_back(base + static_cast<TokenId>(i % 7000));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

class EngineTest : public ::testing::Test {
 protected:
  void Start(EngineConfig config) { engine_ = std::make_unique<Engine>(&sim_, config); }

  // Submits and runs to completion; returns the finished-sequence snapshot.
  struct Outcome {
    TimeNs first_token = 0;
    TimeNs finish = 0;
    int64_t reused = 0;
    bool completed = false;
  };
  Outcome Run(const RequestSpec& spec) {
    Outcome out;
    engine_->Submit(
        spec, [&](const Sequence& seq) { out.first_token = seq.first_token_time; },
        [&](const Sequence& seq) {
          out.finish = seq.finish_time;
          out.reused = seq.reused_tokens;
          out.completed = true;
        });
    sim_.Run();
    return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, SingleRequestCompletes) {
  Start(TestConfig());
  auto out = Run(MakeRequest(1, 512, 32));
  EXPECT_TRUE(out.completed);
  EXPECT_GT(out.first_token, 0);
  EXPECT_GT(out.finish, out.first_token);
  EXPECT_EQ(engine_->stats().completed, 1);
  EXPECT_TRUE(engine_->idle());
}

TEST_F(EngineTest, DecodeTokensMatchTarget) {
  Start(TestConfig());
  Run(MakeRequest(1, 256, 64));
  // Prefill emits token 1; decode generates the remaining 63.
  EXPECT_EQ(engine_->stats().decode_tokens_generated, 63);
  EXPECT_EQ(engine_->stats().prefill_tokens_processed, 256);
}

TEST_F(EngineTest, SingleTokenRequest) {
  Start(TestConfig());
  auto out = Run(MakeRequest(1, 128, 1));
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.first_token, out.finish);
  EXPECT_EQ(engine_->stats().decode_tokens_generated, 0);
}

TEST_F(EngineTest, TtftGrowsWithPromptLength) {
  Start(TestConfig());
  auto small = Run(MakeRequest(1, 256, 2, 100));
  sim::Simulator sim2;
  Engine engine2(&sim2, TestConfig());
  TimeNs big_first = 0;
  engine2.Submit(MakeRequest(2, 4096, 2, 30000),
                 [&](const Sequence& seq) { big_first = seq.first_token_time; },
                 [](const Sequence&) {});
  sim2.Run();
  EXPECT_GT(big_first, small.first_token);
}

TEST_F(EngineTest, PrefixCacheReuseAcrossRequests) {
  Start(TestConfig());
  auto first = Run(MakeRequest(1, 1024, 8));
  EXPECT_EQ(first.reused, 0);
  // Identical prompt: everything except the final partial block is reused.
  auto second = Run(MakeRequest(2, 1024, 8));
  EXPECT_GE(second.reused, 1024 - 2 * 16);
  EXPECT_GT(engine_->stats().reused_tokens, 0);
  // Reuse shortens TTFT (relative to arrival-at-submit timings).
  EXPECT_LT(second.finish - second.first_token + 1, first.finish + 1);
}

TEST_F(EngineTest, CacheDisabledMeansNoReuse) {
  auto config = TestConfig();
  config.enable_prefix_caching = false;
  Start(config);
  Run(MakeRequest(1, 1024, 8));
  auto second = Run(MakeRequest(2, 1024, 8));
  EXPECT_EQ(second.reused, 0);
}

TEST_F(EngineTest, ContinuousBatchingOverlapsRequests) {
  Start(TestConfig());
  workload::MetricsCollector metrics;
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    engine_->Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), 512, 64,
                                static_cast<TokenId>(100 + 8000 * i)),
                    nullptr, [&](const Sequence&) { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 8);
  // Batched decode: total steps far below 8 sequential runs' worth.
  EXPECT_LT(engine_->stats().steps, 8 * 70);
}

TEST_F(EngineTest, ChunkedPrefillSplitsLongPrompts) {
  auto config = TestConfig();
  config.prefill_chunk_tokens = 256;
  Start(config);
  Run(MakeRequest(1, 2048, 2));
  // 2048 tokens at 256/step = 8 prefill steps minimum.
  EXPECT_GE(engine_->stats().steps, 8);
}

TEST_F(EngineTest, AsyncSchedulingBeatsSyncOnCpuBoundBatches) {
  auto run_version = [&](EngineFeatures features) {
    sim::Simulator sim;
    auto config = TestConfig();
    config.features = features;
    Engine engine(&sim, config);
    int done = 0;
    for (int i = 0; i < 16; ++i) {
      engine.Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), 128, 128,
                                static_cast<TokenId>(100 + 500 * i)),
                    nullptr, [&](const Sequence&) { ++done; });
    }
    sim.Run();
    EXPECT_EQ(done, 16);
    return sim.Now();
  };
  TimeNs v1 = run_version(EngineFeatures::V1());
  TimeNs v2 = run_version(EngineFeatures::V2());
  TimeNs v3 = run_version(EngineFeatures::V3());
  EXPECT_GT(v1, v2);
  EXPECT_GT(v2, v3);
}

TEST_F(EngineTest, PreemptionRecoversFromKvPressure) {
  auto config = TestConfig();
  config.kv_block_capacity_override = 80;  // tiny KV space
  Start(config);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    engine_->Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), 512, 256,
                                static_cast<TokenId>(100 + 900 * i)),
                    nullptr, [&](const Sequence&) { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_GT(engine_->stats().preemptions, 0);
}

TEST_F(EngineTest, PrefillOnlyRoleEmitsFirstTokenAndHandsOff) {
  auto config = TestConfig();
  config.role = EngineRole::kPrefillOnly;
  Start(config);
  Bytes sent_bytes = 0;
  engine_->SetKvSendFn([&](const Sequence&, Bytes bytes, std::function<void()> done) {
    sent_bytes = bytes;
    sim_.ScheduleAfter(MsToNs(5), std::move(done));
  });
  auto out = Run(MakeRequest(1, 512, 100));
  EXPECT_TRUE(out.completed);
  EXPECT_GT(out.first_token, 0);
  EXPECT_GT(sent_bytes, 0u);
  // Decode never ran here.
  EXPECT_EQ(engine_->stats().decode_tokens_generated, 0);
}

TEST_F(EngineTest, ByLayerTransferMovesLessResidualKv) {
  auto measure = [&](KvTransferMode mode) {
    sim::Simulator sim;
    auto config = TestConfig();
    config.role = EngineRole::kPrefillOnly;
    config.kv_transfer_mode = mode;
    Engine engine(&sim, config);
    Bytes sent = 0;
    engine.SetKvSendFn([&](const Sequence&, Bytes bytes, std::function<void()> done) {
      sent = bytes;
      sim.ScheduleAfter(0, std::move(done));
    });
    engine.Submit(MakeRequest(1, 512, 10), nullptr, [](const Sequence&) {});
    sim.Run();
    return sent;
  };
  Bytes by_req = measure(KvTransferMode::kByRequest);
  Bytes by_layer = measure(KvTransferMode::kByLayer);
  EXPECT_EQ(by_req, by_layer * 16);  // Tiny1B has 16 layers
}

TEST_F(EngineTest, DecodeOnlyRoleAcceptsPrefilled) {
  auto config = TestConfig();
  config.role = EngineRole::kDecodeOnly;
  Start(config);
  bool completed = false;
  ASSERT_TRUE(engine_
                  ->SubmitPrefilled(MakeRequest(1, 512, 64),
                                    [&](const Sequence&) { completed = true; })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(engine_->stats().decode_tokens_generated, 63);
  EXPECT_EQ(engine_->stats().prefill_tokens_processed, 0);
}

TEST_F(EngineTest, SubmitPrefilledFailsWhenContextCannotFit) {
  auto config = TestConfig();
  config.role = EngineRole::kDecodeOnly;
  config.kv_block_capacity_override = 8;
  Start(config);
  EXPECT_FALSE(engine_->SubmitPrefilled(MakeRequest(1, 512, 4), nullptr).ok());
}

TEST_F(EngineTest, ExplicitContextCaching) {
  Start(TestConfig());
  auto spec = MakeRequest(1, 1024, 4);
  spec.context_id = "session-42";
  Run(spec);
  // Same id, different (longer) prompt suffix: ID match still reuses prefix.
  auto follow = MakeRequest(2, 1024, 4);
  follow.context_id = "session-42";
  auto out = Run(follow);
  EXPECT_GT(out.reused, 0);
}

TEST_F(EngineTest, PipelineParallelStepsRotateMicroBatches) {
  auto config = TestConfig();
  config.parallelism = {1, 4, 1};
  Start(config);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    engine_->Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), 512, 32,
                                static_cast<TokenId>(100 + 3000 * i)),
                    nullptr, [&](const Sequence&) { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 8);
}

TEST_F(EngineTest, PpChunkSpreadingImprovesTtft) {
  auto measure = [&](bool spread) {
    sim::Simulator sim;
    auto config = TestConfig();
    config.parallelism = {1, 4, 1};
    config.prefill_chunk_tokens = 256;
    config.pp_spread_chunks = spread;
    Engine engine(&sim, config);
    TimeNs first = 0;
    engine.Submit(MakeRequest(1, 4096, 4), [&](const Sequence& seq) { first = seq.first_token_time; },
                  [](const Sequence&) {});
    // Background decodes keep all micro-batches busy.
    for (int i = 0; i < 8; ++i) {
      engine.Submit(MakeRequest(static_cast<workload::RequestId>(100 + i), 64, 256,
                                static_cast<TokenId>(20000 + 700 * i)),
                    nullptr, [](const Sequence&) {});
    }
    sim.Run();
    return first;
  };
  TimeNs spread_ttft = measure(true);
  TimeNs sticky_ttft = measure(false);
  // The paper reports >= 20% TTFT reduction from spreading chunks.
  EXPECT_LT(static_cast<double>(spread_ttft), 0.8 * static_cast<double>(sticky_ttft));
}

TEST_F(EngineTest, DataParallelGroupsShareLoad) {
  auto config = TestConfig();
  config.parallelism = {1, 1, 2};
  Start(config);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    engine_->Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), 256, 32,
                                static_cast<TokenId>(100 + 2000 * i)),
                    nullptr, [&](const Sequence&) { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 8);
  // Both DP groups hold cache entries (requests were spread).
  EXPECT_GT(engine_->rtc(0).index_nodes(), 0u);
  EXPECT_GT(engine_->rtc(1).index_nodes(), 0u);
}

TEST_F(EngineTest, DpGroupsHaveIsolatedCaches) {
  auto config = TestConfig();
  config.parallelism = {1, 1, 2};
  Start(config);
  Run(MakeRequest(1, 1024, 4));
  // The entry lives in exactly one group's RTC replica.
  auto tokens = MakeRequest(1, 1024, 4).prompt;
  auto keys = rtc::TokensToBlockKeys(tokens, config.block_size);
  bool g0 = engine_->rtc(0).MatchByPrefixToken(tokens, keys).hit();
  bool g1 = engine_->rtc(1).MatchByPrefixToken(tokens, keys).hit();
  EXPECT_NE(g0, g1);
}

TEST_F(EngineTest, LoadInfoReflectsRunningWork) {
  Start(TestConfig());
  engine_->Submit(MakeRequest(1, 2048, 512), nullptr, [](const Sequence&) {});
  sim_.RunUntil(MsToNs(400));
  auto load = engine_->load();
  EXPECT_EQ(load.waiting + load.running, 1);
  sim_.Run();
  EXPECT_EQ(engine_->load().running, 0);
  EXPECT_TRUE(engine_->idle());
}

TEST_F(EngineTest, StatsAccounting) {
  Start(TestConfig());
  Run(MakeRequest(1, 512, 16));
  const auto& stats = engine_->stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.npu_busy, 0);
  EXPECT_GT(stats.cpu_sched_total, 0);
}

TEST_F(EngineTest, CancelDuringInFlightStep) {
  Start(TestConfig());
  bool completed = false;
  engine_->Submit(MakeRequest(7, 512, 50), nullptr,
                  [&](const Sequence&) { completed = true; });
  // Advance until the first step has been issued but not yet completed.
  while (engine_->stats().steps < 1 && sim_.Step()) {
  }
  ASSERT_EQ(engine_->stats().steps, 1);
  ASSERT_TRUE(engine_->Cancel(7).ok());
  sim_.Run();  // the in-flight step's completion lands on a dead sequence
  EXPECT_FALSE(completed);
  EXPECT_EQ(engine_->stats().cancelled, 1);
  EXPECT_EQ(engine_->stats().completed, 0);
  EXPECT_TRUE(engine_->idle());
  // Every block pin died with the cancellation.
  EXPECT_TRUE(engine_->rtc().EnsureNpuFree(engine_->kv_block_capacity()).ok());
  EXPECT_FALSE(engine_->Cancel(7).ok());
}

TEST_F(EngineTest, CancelDuringWaitingPopulate) {
  auto config = TestConfig();
  config.populate_bandwidth_gbps = 1e6;  // fetch always beats recompute
  Start(config);
  // Make KV transfers slow enough to park the request mid-populate.
  engine_->SetRtcTransferFn(
      [this](rtc::Tier, rtc::Tier, Bytes, std::function<void()> done) {
        sim_.ScheduleAfter(MsToNs(10), std::move(done));
      });
  auto spec = MakeRequest(1, 256, 2);
  ASSERT_TRUE(Run(spec).completed);  // warm the prefix cache
  // Demote the cached prompt: copy to DRAM, then drop its NPU residency.
  auto match = engine_->rtc().MatchByPrefixToken(
      spec.prompt, rtc::TokensToBlockKeys(spec.prompt, config.block_size));
  ASSERT_GT(match.matched_tokens, 0);
  engine_->rtc().Copy(match.blocks, rtc::Tier::kDram, [] {});
  sim_.Run();
  ASSERT_TRUE(engine_->rtc().EnsureNpuFree(engine_->kv_block_capacity()).ok());

  // Same prompt again: the match is off-NPU and cheap to fetch, so the
  // request parks in kWaitingPopulate while the (slow) transfer runs.
  bool completed = false;
  engine_->Submit(MakeRequest(2, 256, 2), nullptr,
                  [&](const Sequence&) { completed = true; });
  while (engine_->stats().populates_started < 1 && sim_.Step()) {
  }
  ASSERT_EQ(engine_->stats().populates_started, 1);
  ASSERT_TRUE(engine_->Cancel(2).ok());
  sim_.Run();  // the in-flight populate transfer still lands harmlessly
  EXPECT_FALSE(completed);
  EXPECT_EQ(engine_->stats().cancelled, 1);
  EXPECT_EQ(engine_->stats().completed, 1);  // only the warm-up request
  EXPECT_TRUE(engine_->idle());
  // Exactly the repopulated cached prefix remains on-NPU (15 of the 16
  // matched blocks; truncation dropped the tail block): the cancelled
  // sequence leaked neither its acquisitions nor the populate pins.
  EXPECT_EQ(engine_->rtc().pool().used(rtc::Tier::kNpu), 15);
  // The populated blocks are still a usable cache entry.
  auto third = Run(MakeRequest(3, 256, 2));
  EXPECT_TRUE(third.completed);
  EXPECT_EQ(third.reused, 15 * 16);
}

TEST_F(EngineTest, StaleTokenizeEventIgnoresRecycledSequenceSlot) {
  Start(TestConfig());
  // Request 1 is cancelled while its tokenize event is still queued; request
  // 2 then takes over its sequence slot. The stale event must not enqueue
  // request 2 a second time.
  engine_->Submit(MakeRequest(1, 512, 8), nullptr, [](const Sequence&) {});
  ASSERT_TRUE(engine_->Cancel(1).ok());
  int completions = 0;
  engine_->Submit(MakeRequest(2, 512, 8, /*base=*/3000), nullptr,
                  [&](const Sequence&) { ++completions; });
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(engine_->stats().completed, 1);
  EXPECT_TRUE(engine_->idle());
  // A double enqueue would leak the first copy's block pins.
  EXPECT_TRUE(engine_->rtc().EnsureNpuFree(engine_->kv_block_capacity()).ok());
}

// Parameterized sweep: engines complete all work across batch-size and
// prompt-length combinations without deadlock or leak.
class EngineSweepTest : public ::testing::TestWithParam<std::tuple<int, int64_t, int64_t>> {};

TEST_P(EngineSweepTest, AllRequestsComplete) {
  auto [count, prefill, decode] = GetParam();
  sim::Simulator sim;
  Engine engine(&sim, TestConfig());
  int completed = 0;
  for (int i = 0; i < count; ++i) {
    engine.Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), prefill, decode,
                              static_cast<TokenId>(100 + 997 * i)),
                  nullptr, [&](const Sequence&) { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, count);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.rtc().pool().used(rtc::Tier::kNpu),
            static_cast<int64_t>(engine.rtc().pool().used(rtc::Tier::kNpu)));
  // All sequence pins released: every remaining block is unreferenced cache.
  EXPECT_EQ(engine.load().running, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweepTest,
    ::testing::Values(std::make_tuple(1, 16, 1), std::make_tuple(4, 128, 16),
                      std::make_tuple(16, 512, 64), std::make_tuple(8, 2048, 8),
                      std::make_tuple(2, 4096, 256), std::make_tuple(32, 64, 32)));

}  // namespace
}  // namespace deepserve::flowserve
