#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "flowserve/engine.h"
#include "obs/trace.h"
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
        spec, {[&](const Sequence& seq) { out.first_token = seq.first_token_time; },
               [&](const Sequence& seq) {
                 out.finish = seq.finish_time;
                 out.reused = seq.reused_tokens;
                 out.completed = true;
               }});
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
                 {[&](const Sequence& seq) { big_first = seq.first_token_time; },
                  [](const Sequence&) {}});
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

// A request submitted without a block-key chain (straight to the engine, not
// through a JE) is hashed by the engine once, for both its RTC match and its
// cache commit; a request that brings its chain is not hashed again.
TEST_F(EngineTest, DirectSubmitHashesItsPromptOnce) {
  Start(TestConfig());
  ASSERT_TRUE(Run(MakeRequest(1, 1024, 8)).completed);
  EXPECT_EQ(engine_->stats().prompt_hashes, 1);
  // A longer prompt with the same 1024-token prefix reuses all 64 committed
  // blocks.
  auto second = Run(MakeRequest(2, 1024 + 100, 8));
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(second.reused, 1024);
  EXPECT_EQ(engine_->stats().prompt_hashes, 2);

  RequestSpec third = MakeRequest(3, 1024, 8);
  int64_t third_reused = -1;
  engine_->Submit(third, {nullptr, [&](const Sequence& seq) { third_reused = seq.reused_tokens; }},
                  rtc::KeyChain::Hash(third.prompt));
  sim_.Run();
  // All but the block holding the final prompt token, which must run.
  EXPECT_EQ(third_reused, 1024 - rtc::kBlockTokens);
  EXPECT_EQ(engine_->stats().prompt_hashes, 2);
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
                    {nullptr, [&](const Sequence&) { ++completed; }});
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
                    {nullptr, [&](const Sequence&) { ++done; }});
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
                    {nullptr, [&](const Sequence&) { ++completed; }});
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
    engine.Submit(MakeRequest(1, 512, 10), {nullptr, [](const Sequence&) {}});
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
                                    {nullptr, [&](const Sequence&) { completed = true; }})
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
  EXPECT_FALSE(engine_->SubmitPrefilled(MakeRequest(1, 512, 4), {}).ok());
}

TEST_F(EngineTest, SubmitFailsOnceWhenContextCanNeverFit) {
  auto config = TestConfig();
  config.kv_block_capacity_override = 8;  // 128 tokens; the request needs 516
  Start(config);
  int callbacks = 0;
  std::vector<Status> errors;
  engine_->Submit(MakeRequest(1, 512, 4), {[&](const Sequence&) { ++callbacks; },
                                           [&](const Sequence&) { ++callbacks; },
                                           [&](const Status& status) { errors.push_back(status); }});
  EXPECT_TRUE(errors.empty());  // from an event, never inside Submit
  sim_.Run();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(callbacks, 0);
  EXPECT_TRUE(engine_->idle());
  EXPECT_EQ(engine_->stats().submitted, 0);
  EXPECT_EQ(engine_->stats().steps, 0);
  EXPECT_EQ(engine_->rtc().npu_blocks_used(), 0);
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
                    {nullptr, [&](const Sequence&) { ++completed; }});
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
    engine.Submit(MakeRequest(1, 4096, 4),
                  {[&](const Sequence& seq) { first = seq.first_token_time; },
                   [](const Sequence&) {}});
    // Background decodes keep all micro-batches busy.
    for (int i = 0; i < 8; ++i) {
      engine.Submit(MakeRequest(static_cast<workload::RequestId>(100 + i), 64, 256,
                                static_cast<TokenId>(20000 + 700 * i)),
                    {nullptr, [](const Sequence&) {}});
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
                    {nullptr, [&](const Sequence&) { ++completed; }});
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
  auto keys = rtc::TokensToBlockKeys(tokens);
  bool g0 = engine_->rtc(0).MatchByPrefixToken(tokens, keys).hit();
  bool g1 = engine_->rtc(1).MatchByPrefixToken(tokens, keys).hit();
  EXPECT_NE(g0, g1);
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
  engine_->Submit(MakeRequest(7, 512, 50),
                  {nullptr, [&](const Sequence&) { completed = true; }});
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
      spec.prompt, rtc::TokensToBlockKeys(spec.prompt));
  ASSERT_GT(match.matched_tokens, 0);
  engine_->rtc().Copy(match.blocks, rtc::Tier::kDram, [] {});
  sim_.Run();
  ASSERT_TRUE(engine_->rtc().EnsureNpuFree(engine_->kv_block_capacity()).ok());

  // Same prompt again: the match is off-NPU and cheap to fetch, so the
  // request parks in kWaitingPopulate while the (slow) transfer runs.
  bool completed = false;
  engine_->Submit(MakeRequest(2, 256, 2),
                  {nullptr, [&](const Sequence&) { completed = true; }});
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
  engine_->Submit(MakeRequest(1, 512, 8), {nullptr, [](const Sequence&) {}});
  ASSERT_TRUE(engine_->Cancel(1).ok());
  int completions = 0;
  engine_->Submit(MakeRequest(2, 512, 8, /*base=*/3000),
                  {nullptr, [&](const Sequence&) { ++completions; }});
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(engine_->stats().completed, 1);
  EXPECT_TRUE(engine_->idle());
  // A double enqueue would leak the first copy's block pins.
  EXPECT_TRUE(engine_->rtc().EnsureNpuFree(engine_->kv_block_capacity()).ok());
}

TEST(KvBlockCapacityTest, ModelThatDoesNotFitIsAnError) {
  EngineConfig config;
  config.model = model::ModelSpec::Yi34B();
  config.parallelism = {1, 1, 1};
  Result<int64_t> capacity = KvBlockCapacity(config);
  ASSERT_FALSE(capacity.ok());
  EXPECT_EQ(capacity.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(capacity.status().message().find(config.model.name), std::string::npos);
  EXPECT_NE(capacity.status().message().find("tp1"), std::string::npos);
  // The same model fits once TP shards its weights.
  config.parallelism = {4, 1, 1};
  EXPECT_TRUE(KvBlockCapacity(config).ok());
}

TEST(KvBlockCapacityTest, ParallelismBelowOneIsAnError) {
  const model::ParallelismConfig bad[] = {{0, 1, 1}, {-2, 1, 1}, {1, 0, 1}, {1, 1, 0}};
  for (const model::ParallelismConfig& parallelism : bad) {
    EngineConfig config = TestConfig();
    config.parallelism = parallelism;
    Result<int64_t> capacity = KvBlockCapacity(config);
    ASSERT_FALSE(capacity.ok()) << parallelism.ToString() << ": the override does not skip it";
    EXPECT_EQ(capacity.status().code(), StatusCode::kInvalidArgument);
    config.kv_block_capacity_override = 0;  // the path that builds a CostModel
    EXPECT_EQ(KvBlockCapacity(config).status().code(), StatusCode::kInvalidArgument)
        << parallelism.ToString();
  }
}

TEST(KvBlockCapacityTest, MatchesWhatTheEngineUses) {
  EngineConfig config = TestConfig();
  config.kv_block_capacity_override = 0;
  Result<int64_t> capacity = KvBlockCapacity(config);
  ASSERT_TRUE(capacity.ok()) << capacity.status().ToString();
  sim::Simulator sim;
  Engine engine(&sim, config);
  EXPECT_EQ(*capacity, engine.kv_block_capacity());
  EXPECT_EQ(engine.rtc().pool().capacity(rtc::Tier::kNpu), *capacity);
  config.kv_block_capacity_override = 4096;
  EXPECT_EQ(KvBlockCapacity(config).value(), 4096);
}

TEST(KvBlockCapacityTest, OverrideBeyondHbmIsAnError) {
  EngineConfig config = TestConfig();
  config.parallelism = {2, 2, 1};
  // Each of the 4 NPUs holds a quarter of every block's KV.
  const Bytes per_npu_block = config.model.KvBytesPerToken() * rtc::kBlockTokens / 4;
  const Bytes hbm = config.npu_spec.hbm_capacity;
  const int64_t bound = static_cast<int64_t>(hbm / per_npu_block);
  ASSERT_LE(static_cast<Bytes>(bound) * per_npu_block, hbm);
  ASSERT_GT(static_cast<Bytes>(bound + 1) * per_npu_block, hbm);
  config.kv_block_capacity_override = bound;
  Result<int64_t> at_bound = KvBlockCapacity(config);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(*at_bound, bound);
  config.kv_block_capacity_override = bound + 1;
  Result<int64_t> above = KvBlockCapacity(config);
  ASSERT_FALSE(above.ok());
  EXPECT_EQ(above.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(above.status().message().find(config.npu_spec.name), std::string::npos);
  // Another DP group brings its own NPUs, so it does not move the bound.
  config.parallelism = {2, 2, 2};
  EXPECT_EQ(KvBlockCapacity(config).status().code(), StatusCode::kInvalidArgument);
  config.kv_block_capacity_override = bound;
  EXPECT_TRUE(KvBlockCapacity(config).ok());
}

// ---- decode runs ------------------------------------------------------------
// Each scenario below runs on a traced and an untraced twin from the same sim
// events. Both take decode runs and settles, fire the same events, and must
// give the outcome pinned for the scenario: the per-request times, stats()
// reads and final EngineStats, in ns, of an engine that stepped one event per
// step, which is the oracle for decode runs. The one pin that is not a stepped
// outcome is the tie ContactsAtExactlyAStepBoundary names (DESIGN #6).

struct TwinOutcome {
  // Request id -> (first_token_time, finish_time), completed requests only.
  std::map<workload::RequestId, std::pair<TimeNs, TimeNs>> times;
  int errored = 0;
  // (steps, decode_tokens_generated) at each stats() read the scenario made.
  std::vector<std::pair<int64_t, int64_t>> reads;
  EngineStats stats;
  TimeNs end = 0;
  uint64_t events = 0;
};

class Twin {
 public:
  Twin(const EngineConfig& config, bool traced) {
    if (traced) {
      sim.SetTracer(&tracer);
    }
    engine = std::make_unique<Engine>(&sim, config);
  }
  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  ResponseHandler Handler() {
    return {nullptr,
            [this](const Sequence& seq) {
              out.times[seq.request_id] = {seq.first_token_time, seq.finish_time};
            },
            [this](const Status&) { ++out.errored; }};
  }
  void Submit(const RequestSpec& spec) { engine->Submit(spec, Handler()); }
  // Hands a prefilled request over as a PD hand-off does: a refusal retries
  // 10 ms later until the engine takes it.
  void SubmitPrefilled(const RequestSpec& spec) {
    if (!engine->SubmitPrefilled(spec, Handler()).ok()) {
      sim.ScheduleAfter(MsToNs(10), [this, spec] { SubmitPrefilled(spec); });
    }
  }
  void Read() {
    const EngineStats& stats = engine->stats();
    out.reads.emplace_back(stats.steps, stats.decode_tokens_generated);
  }
  TwinOutcome Finish() {
    sim.Run();
    out.stats = engine->stats();
    out.end = sim.Now();
    out.events = sim.TotalFired();
    return out;
  }

  sim::Simulator sim;
  obs::Tracer tracer;
  std::unique_ptr<Engine> engine;
  TwinOutcome out;
};

// FNV-1a over `words`, in order.
uint64_t Fnv(std::initializer_list<int64_t> words, uint64_t hash = 1469598103934665603ull) {
  for (const int64_t word : words) {
    hash ^= static_cast<uint64_t>(word);
    hash *= 1099511628211ull;
  }
  return hash;
}

// A scenario's stepped outcome: its end time and step count, readable, and a
// digest of every TwinOutcome field but the event count.
struct Pin {
  TimeNs end = 0;
  int64_t steps = 0;
  uint64_t digest = 0;
};

// Every EngineStats field is in the digest below.
static_assert(sizeof(EngineStats) == 23 * sizeof(int64_t), "add the new field to PinOf");

Pin PinOf(const TwinOutcome& out) {
  uint64_t hash = Fnv({out.errored, out.end});
  for (const auto& [id, times] : out.times) {
    hash = Fnv({static_cast<int64_t>(id), times.first, times.second}, hash);
  }
  for (const auto& [steps, tokens] : out.reads) {
    hash = Fnv({steps, tokens}, hash);
  }
  const EngineStats& s = out.stats;
  hash = Fnv({s.submitted, s.completed, s.steps, s.prefill_tokens_processed,
              s.prefill_attended_tokens, s.decode_tokens_generated, s.reused_tokens,
              s.pic_reused_tokens, s.prompt_hashes, s.populates_started, s.populates_rejected,
              s.preemptions, s.cancelled, s.aborted, s.aborted_kv_tokens, s.max_decode_step,
              s.npu_busy, s.cpu_sched_total, s.cpu_stall, s.shed, s.deadline_misses,
              s.tbt_violations, s.ttft_violations},
             hash);
  return {out.end, s.steps, hash};
}

void ExpectPinned(const TwinOutcome& out, const Pin& want) {
  const Pin got = PinOf(out);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.digest, want.digest)
      << "pin {" << got.end << ", " << got.steps << ", 0x" << std::hex << got.digest << "ull}";
}

using Scenario = std::function<void(Twin&)>;

// FNV-1a over the sorted set of `tracer`'s step slice records (ts, phase,
// lane and args), which does not depend on the order they were recorded in.
uint64_t StepSliceDigest(const obs::Tracer& tracer, size_t* count) {
  std::vector<std::string> records;
  for (const obs::TraceEvent* event : tracer.EventsNamed("step")) {
    std::string record = std::to_string(event->ts) + ' ' +
                         std::string(obs::PhaseToString(event->phase)) + ' ' +
                         std::to_string(event->tid);
    for (const obs::TraceArg& arg : event->args) {
      record += ' ' + arg.key + '=' + arg.value;
    }
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end());
  *count = records.size();
  uint64_t hash = Fnv({});
  for (const std::string& record : records) {
    for (const char c : record) {
      hash = Fnv({static_cast<unsigned char>(c)}, hash);
    }
    hash = Fnv({'\n'}, hash);
  }
  return hash;
}

// The step slices a traced engine that stepped recorded: how many, and the
// StepSliceDigest of them.
struct SlicePin {
  size_t count = 0;
  uint64_t digest = 0;
};

// Runs `scenario` on a traced and an untraced twin, checks both against
// `pin`, checks that the traced twin recorded one step slice per step (and,
// given `slices`, that they are the pinned ones), and returns the untraced
// outcome.
TwinOutcome ExpectRunsMatchSteps(const EngineConfig& config, const Scenario& scenario,
                                 const Pin& pin, const SlicePin* slices = nullptr) {
  Twin traced(config, /*traced=*/true);
  Twin untraced(config, /*traced=*/false);
  scenario(traced);
  scenario(untraced);
  const TwinOutcome got = untraced.Finish();
  ExpectPinned(got, pin);
  ExpectPinned(traced.Finish(), pin);
  EXPECT_EQ(traced.out.events, got.events) << "tracing changed the event path";
  EXPECT_LT(got.events, static_cast<uint64_t>(got.stats.steps)) << "no decode run formed";
  size_t count = 0;
  const uint64_t digest = StepSliceDigest(traced.tracer, &count);
  EXPECT_EQ(count, static_cast<size_t>(2 * traced.out.stats.steps));
  if (slices != nullptr) {
    EXPECT_EQ(count, slices->count);
    EXPECT_EQ(digest, slices->digest) << "slices 0x" << std::hex << digest;
  }
  return got;
}

// The twins' rough step length for these configs, to place contacts
// inside runs.
constexpr TimeNs kStep = MsToNs(2.6);

// Two requests at once, then twelve more at pseudo-random times, some
// sharing a prefix.
void StaggeredSubmits(Twin& twin) {
  twin.Submit(MakeRequest(1, 100, 300, 1000));
  twin.Submit(MakeRequest(2, 37, 120, 3000));
  uint64_t state = 33;
  for (workload::RequestId id = 3; id < 15; ++id) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const TimeNs at = static_cast<TimeNs>((state >> 33) % 200) * kStep / 3;
    const int64_t len = 20 + static_cast<int64_t>((state >> 20) % 400);
    const int64_t decode = 1 + static_cast<int64_t>((state >> 40) % 150);
    const TokenId base = id % 3 == 0 ? 1000 : static_cast<TokenId>(5000 + 991 * id);
    twin.sim.ScheduleAt(at, [&twin, id, len, decode, base] {
      twin.Submit(MakeRequest(id, len, decode, base));
    });
  }
}

EngineConfig StaggeredConfig(int dp) {
  EngineConfig config = TestConfig();
  config.parallelism = {1, 1, dp};
  config.sched.tbt_budget_ms = 2.7;  // some steps exceed it
  return config;
}

TEST(DecodeRunTest, StaggeredSubmitsLandInsideRuns) {
  const Pin pins[] = {{794154791, 301, 0x255eb22258f0d165ull},
                      {771912594, 496, 0xeed04de91dda7059ull}};
  // The traced twin records the step slices stepping recorded: one per step,
  // each with its own begin and end.
  const SlicePin slices[] = {{602, 0x605e2803d89e4b07ull}, {992, 0xef94971cf69de3b1ull}};
  for (int dp : {1, 2}) {
    const TwinOutcome got = ExpectRunsMatchSteps(StaggeredConfig(dp), StaggeredSubmits,
                                                 pins[dp - 1], &slices[dp - 1]);
    EXPECT_EQ(got.times.size(), 14u) << "dp " << dp;
    EXPECT_GT(got.stats.tbt_violations, 0) << "dp " << dp;
  }
}

TEST(DecodeRunTest, DecodeOnlyEngineFedBySubmitPrefilled) {
  // Ten hand-offs into 48 KV blocks (768 tokens), so some wait for room.
  auto config = [](int64_t max_batch) {
    EngineConfig decode_only = TestConfig();
    decode_only.role = EngineRole::kDecodeOnly;
    decode_only.kv_block_capacity_override = 48;
    decode_only.max_batch_seqs = max_batch;
    return decode_only;
  };
  auto handoffs = [](int64_t prompt_base) -> Scenario {
    return [prompt_base](Twin& twin) {
      for (workload::RequestId id = 1; id <= 10; ++id) {
        const TimeNs at = static_cast<TimeNs>(id * id) * kStep * 3 / 2;
        twin.sim.ScheduleAt(at, [&twin, id, prompt_base] {
          twin.SubmitPrefilled(MakeRequest(id, prompt_base + 29 * static_cast<int64_t>(id),
                                           90 - 5 * id, static_cast<TokenId>(1000 * id)));
        });
      }
    };
  };
  const TwinOutcome got =
      ExpectRunsMatchSteps(config(256), handoffs(100), {765900000, 292, 0x786ea58b5734889eull});
  EXPECT_EQ(got.times.size(), 10u);
  // Shorter prompts let more sequences in at once, and a batch cap of 3 makes
  // some of them sit out steps: the outcome differs from an uncapped run's.
  const TwinOutcome capped =
      ExpectRunsMatchSteps(config(3), handoffs(30), {638808114, 246, 0x28628ce3694f1c21ull});
  EXPECT_EQ(capped.times.size(), 10u);
  Twin uncapped(config(256), /*traced=*/false);
  handoffs(30)(uncapped);
  EXPECT_NE(PinOf(uncapped.Finish()).digest, PinOf(capped).digest) << "the batch cap never binds";
}

TEST(DecodeRunTest, CancelAbortAndSlowdownMidRun) {
  const TwinOutcome got = ExpectRunsMatchSteps(TestConfig(), [](Twin& twin) {
    for (workload::RequestId id = 1; id <= 4; ++id) {
      twin.Submit(MakeRequest(id, 60 * static_cast<int64_t>(id), 200, static_cast<TokenId>(1000 * id)));
    }
    twin.sim.ScheduleAt(kStep * 23 + 7, [&twin] { ASSERT_TRUE(twin.engine->Cancel(2).ok()); });
    twin.sim.ScheduleAt(kStep * 41 + 3, [&twin] { twin.engine->SetStepTimeMultiplier(1.7); });
    twin.sim.ScheduleAt(kStep * 77 + 11, [&twin] { twin.engine->SetStepTimeMultiplier(1.0); });
    twin.sim.ScheduleAt(kStep * 130 + 5, [&twin] { twin.engine->Abort(); });
    twin.sim.ScheduleAt(kStep * 131, [&twin] {
      twin.Submit(MakeRequest(5, 300, 60, 1000));
      twin.Submit(MakeRequest(6, 45, 70, 9000));
    });
    twin.sim.ScheduleAt(kStep * 150 + 1, [&twin] { ASSERT_TRUE(twin.engine->Cancel(6).ok()); });
  }, {496580245, 177, 0xa2b72479a6024c27ull});
  EXPECT_EQ(got.times.size(), 1u);  // 1, 3 and 4 aborted, 2 and 6 cancelled
  EXPECT_EQ(got.stats.cancelled, 2);
  EXPECT_EQ(got.stats.aborted, 3);
}

TEST(DecodeRunTest, StatsReadsMidRunSeeTheSteppedCounts) {
  const TwinOutcome got = ExpectRunsMatchSteps(TestConfig(), [](Twin& twin) {
    twin.Submit(MakeRequest(1, 100, 150, 1000));
    twin.Submit(MakeRequest(2, 230, 100, 2000));
    for (int i = 1; i < 60; ++i) {
      twin.sim.ScheduleAt(kStep * 37 * i / 10, [&twin] { twin.Read(); });
    }
  }, {567580000, 150, 0xf7eb21bdf037647bull});
  EXPECT_EQ(got.reads.size(), 59u);
  EXPECT_GT(got.reads.back().second, 0);
}

// Contacts at exactly a step boundary b_j. Stepping one event per step, step
// j's completion is scheduled at b_{j-1}: a contact at b_j scheduled before
// b_{j-1} sees step j unfinished, and one scheduled after b_{j-1} sees it
// finished. A slowdown applied there reaches step j+1 in the first case and
// only step j+2 in the second.
TEST(DecodeRunTest, ContactsAtExactlyAStepBoundary) {
  // One request: after its prefill step each run covers the steps up to the
  // sequence's next KV block, steps 2..12, then 13..28 and so on. So b_20
  // lies inside a run and b_28 is a run's end.
  EngineConfig config = TestConfig();
  auto base = [](Twin& twin) { twin.Submit(MakeRequest(1, 100, 200, 1000)); };
  std::vector<TimeNs> ends;  // ends[j - 1] = b_j
  {
    Twin probe(config, /*traced=*/true);
    base(probe);
    probe.Finish();
    for (const obs::TraceEvent* event : probe.tracer.EventsNamed("step")) {
      if (event->phase == obs::Phase::kEnd) {
        ends.push_back(event->ts);
      }
    }
    // A run's later steps are recorded when it settles, not when they end.
    std::sort(ends.begin(), ends.end());
  }
  ASSERT_GT(ends.size(), 30u);
  auto contact = [](Twin& twin) {
    twin.Read();
    twin.engine->SetStepTimeMultiplier(2.0);
  };
  // Contacts at b_20 then b_28, each scheduled before, after and exactly at
  // b_{j-1}.
  const Pin pins[] = {{959942750, 200, 0x64c2056279f8df6eull},
                      {957419192, 200, 0x66cabc78035ec578ull},
                      {939753569, 200, 0x42fdfd7f049289c4ull},
                      {937229806, 200, 0x49f7eb0197973f00ull}};
  const Pin* pin = pins;
  for (const int64_t j : {20, 28}) {
    const TimeNs b_j = ends[j - 1];
    // Scheduled at `from`, due at b_j.
    auto contact_from = [&](TimeNs from) {
      return [&, from](Twin& twin) {
        base(twin);
        twin.sim.ScheduleAt(from, [&twin, &contact, b_j] {
          twin.sim.ScheduleAt(b_j, [&twin, &contact] { contact(twin); });
        });
      };
    };
    const TwinOutcome before = ExpectRunsMatchSteps(config, contact_from(ends[j - 3] + 1), *pin++);
    const TwinOutcome after = ExpectRunsMatchSteps(config, contact_from(ends[j - 2] + 1), *pin++);
    ASSERT_EQ(before.reads.size(), 1u);
    ASSERT_EQ(after.reads.size(), 1u);
    // Steps charged: j with j - 1 done before, j + 1 with j done after. The
    // prefill step emits no decode token.
    EXPECT_EQ(before.reads[0], std::make_pair(j, j - 2)) << "b_" << j;
    EXPECT_EQ(after.reads[0], std::make_pair(j + 1, j - 1)) << "b_" << j;
    EXPECT_GT(before.times.at(1).second, after.times.at(1).second) << "b_" << j;
    // Scheduled at exactly b_{j-1} by an event scheduled at t = 0. Stepping
    // fires that event before step j - 1's completion, so the contact comes
    // before step j's end and reads what `before` reads. A run agrees while
    // b_j lies inside it (SettleRun counts step j in flight). At a run's end
    // it does not: the run's one event, scheduled at the run's start as of
    // b_{j-1}, fires first, and the contact reads what `after` reads. That
    // tie (DESIGN #6) is pinned so that a change to it is deliberate.
    const TwinOutcome& tie = j == 20 ? before : after;
    ExpectRunsMatchSteps(config, contact_from(ends[j - 2]), PinOf(tie));
  }
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
                  {nullptr, [&](const Sequence&) { ++completed; }});
  }
  sim.Run();
  EXPECT_EQ(completed, count);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.rtc().pool().used(rtc::Tier::kNpu),
            static_cast<int64_t>(engine.rtc().pool().used(rtc::Tier::kNpu)));
  // All sequence pins released: every remaining block is unreferenced cache.
  EXPECT_EQ(engine.live_sequences(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweepTest,
    ::testing::Values(std::make_tuple(1, 16, 1), std::make_tuple(4, 128, 16),
                      std::make_tuple(16, 512, 64), std::make_tuple(8, 2048, 8),
                      std::make_tuple(2, 4096, 256), std::make_tuple(32, 64, 32)));

}  // namespace
}  // namespace deepserve::flowserve
