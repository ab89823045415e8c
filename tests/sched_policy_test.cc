// Focused tests for the Algorithm-1 policy machinery: bench-produced heatmaps
// feeding the scheduler, the PD overload guard, prompt-tree bookkeeping, and
// load-balance gating.

#include <gtest/gtest.h>

#include <memory>

#include "serving/heatmap.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve::serving {
namespace {

flowserve::EngineConfig SmallEngine(flowserve::EngineRole role) {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.role = role;
  config.kv_block_capacity_override = 8192;
  return config;
}

workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode,
                                  TokenId base = 400) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < prefill; ++i) {
    tokens.push_back(base + static_cast<TokenId>(i % 5000));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

class SchedPolicyTest : public ::testing::Test {
 protected:
  std::unique_ptr<TaskExecutor> MakeTe(TeId id, flowserve::EngineRole role) {
    TeConfig config;
    config.id = id;
    config.engine = SmallEngine(role);
    return std::make_unique<TaskExecutor>(&sim_, std::move(config));
  }
  sim::Simulator sim_;
};

TEST_F(SchedPolicyTest, BenchProducedHeatmapDrivesRouting) {
  // A serialized heatmap in the exact format fig05_pd_heatmap emits: a
  // single row/column grid that always prefers disaggregation.
  auto parsed = PdHeatmap::Parse("1 1\n1024\n1.0\n5.0\n");
  ASSERT_TRUE(parsed.ok());
  JeConfig config;
  config.policy = SchedulingPolicy::kCombined;
  JobExecutor je(&sim_, config, std::move(*parsed), MakeOraclePredictor());
  auto coloc = MakeTe(1, flowserve::EngineRole::kColocated);
  auto prefill = MakeTe(2, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(3, flowserve::EngineRole::kDecodeOnly);
  je.AddColocatedTe(coloc.get());
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  for (int i = 0; i < 4; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 128, 512), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  // Short-prefill/long-decode requests would default colocated; the loaded
  // all-positive map overrides to disaggregated.
  EXPECT_EQ(je.stats().routed_disaggregated, 4);
  EXPECT_EQ(je.stats().routed_colocated, 0);
}

TEST_F(SchedPolicyTest, OverloadGuardRedirectsToColocated) {
  // All-positive heatmap (always prefer disagg): once the pair queues up past
  // the guard (2x the colocated depth + 8), traffic must spill to the
  // colocated TE.
  auto map = PdHeatmap::Parse("1 1\n1024\n1.0\n5.0\n");
  ASSERT_TRUE(map.ok());
  JeConfig config;
  config.policy = SchedulingPolicy::kCombined;
  JobExecutor je(&sim_, config, std::move(*map), MakeOraclePredictor());
  auto coloc = MakeTe(1, flowserve::EngineRole::kColocated);
  auto prefill = MakeTe(2, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(3, flowserve::EngineRole::kDecodeOnly);
  je.AddColocatedTe(coloc.get());
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  // Burst of simultaneous requests: the first go disagg until the pair's
  // queue passes the guard, then the burst spills onto the colocated TE.
  for (int i = 0; i < 24; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 512,
                                 static_cast<TokenId>(100 + 613 * i)), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_GT(je.stats().routed_disaggregated, 0);
  EXPECT_GT(je.stats().routed_colocated, 0);
}

TEST_F(SchedPolicyTest, OverloadGuardAlsoProtectsColocatedSide) {
  // All-negative heatmap (always prefer colocated) with one colocated TE
  // drowning: past the guard, the burst spills to the idle disaggregated
  // pair.
  auto map = PdHeatmap::Parse("1 1\n1024\n1.0\n-5.0\n");
  ASSERT_TRUE(map.ok());
  JeConfig config;
  config.policy = SchedulingPolicy::kCombined;
  JobExecutor je(&sim_, config, std::move(*map), MakeOraclePredictor());
  auto coloc = MakeTe(1, flowserve::EngineRole::kColocated);
  auto prefill = MakeTe(2, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(3, flowserve::EngineRole::kDecodeOnly);
  je.AddColocatedTe(coloc.get());
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  for (int i = 0; i < 24; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 512,
                                 static_cast<TokenId>(100 + 419 * i)), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_GT(je.stats().routed_colocated, 0);
  EXPECT_GT(je.stats().routed_disaggregated, 0);
}

TEST_F(SchedPolicyTest, LoadBalanceSlackGatesLocality) {
  // A same-prefix burst piles onto one TE. While the queue-depth gap stays
  // within the JE's slack of 8 (a burst of 9 at most) the combined policy
  // always takes the locality branch; a longer burst widens the gap past it
  // and the load branch takes over.
  for (int burst : {8, 24}) {
    sim::Simulator sim;
    JeConfig config;
    config.policy = SchedulingPolicy::kCombined;
    JobExecutor je(&sim, config, PdHeatmap::Default(), MakeOraclePredictor());
    TeConfig tec1;
    tec1.id = 1;
    tec1.engine = SmallEngine(flowserve::EngineRole::kColocated);
    TaskExecutor te1(&sim, std::move(tec1));
    TeConfig tec2;
    tec2.id = 2;
    tec2.engine = SmallEngine(flowserve::EngineRole::kColocated);
    TaskExecutor te2(&sim, std::move(tec2));
    je.AddColocatedTe(&te1);
    je.AddColocatedTe(&te2);
    for (int i = 0; i < burst; ++i) {
      je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 512, 64, 777), {nullptr, nullptr, nullptr});
    }
    sim.Run();
    if (burst <= 9) {
      EXPECT_GT(je.stats().locality_decisions, 0);
      EXPECT_EQ(je.stats().load_decisions, 0);
    } else {
      EXPECT_GT(je.stats().load_decisions, 0);
    }
  }
}

TEST_F(SchedPolicyTest, PromptTreeCapIsEnforced) {
  JeConfig config;
  config.policy = SchedulingPolicy::kLocalityOnly;
  config.max_tree_nodes = 8;  // tiny cap: constant eviction
  JobExecutor je(&sim_, config, PdHeatmap::Default(), MakeOraclePredictor());
  auto te = MakeTe(1, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te.get());
  for (int i = 0; i < 64; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 256, 2,
                                 static_cast<TokenId>(1000 + 293 * i)), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  // All requests served despite aggressive tree trimming.
  EXPECT_EQ(te->engine().stats().completed, 64);
}

TEST_F(SchedPolicyTest, PredictorErrorsChangeRouting) {
  // A predictor that always answers "huge decode" pushes borderline requests
  // to colocated; one that answers "tiny decode" pushes them to disagg.
  for (int64_t predicted : {int64_t{8192}, int64_t{8}}) {
    sim::Simulator sim;
    JeConfig config;
    config.policy = SchedulingPolicy::kPdAware;
    JobExecutor je(&sim, config, PdHeatmap::Default(),
                   std::make_unique<ConstantPredictor>(predicted));
    TeConfig tec1;
    tec1.id = 1;
    tec1.engine = SmallEngine(flowserve::EngineRole::kColocated);
    TaskExecutor coloc(&sim, std::move(tec1));
    TeConfig tec2;
    tec2.id = 2;
    tec2.engine = SmallEngine(flowserve::EngineRole::kPrefillOnly);
    TaskExecutor prefill(&sim, std::move(tec2));
    TeConfig tec3;
    tec3.id = 3;
    tec3.engine = SmallEngine(flowserve::EngineRole::kDecodeOnly);
    TaskExecutor decode(&sim, std::move(tec3));
    je.AddColocatedTe(&coloc);
    je.AddPrefillTe(&prefill);
    je.AddDecodeTe(&decode);
    je.HandleRequest(MakeRequest(1, 512, 64), {nullptr, nullptr, nullptr});
    sim.Run();
    if (predicted > 512) {
      EXPECT_EQ(je.stats().routed_colocated, 1);
    } else {
      EXPECT_EQ(je.stats().routed_disaggregated, 1);
    }
  }
}

}  // namespace
}  // namespace deepserve::serving
