// MoE model support and operator-level (attention-expert) disaggregation
// (§4.5) tests.

#include <gtest/gtest.h>

#include "flowserve/engine.h"
#include "model/cost_model.h"
#include "model/model_spec.h"
#include "sim/simulator.h"

namespace deepserve::model {
namespace {

TEST(MoeSpecTest, MixtralParamCounts) {
  ModelSpec m = ModelSpec::Mixtral8x7B();
  EXPECT_TRUE(m.is_moe());
  // Total ~47B, active ~13B (the well-known Mixtral numbers).
  EXPECT_NEAR(static_cast<double>(m.ParamCount()), 47e9, 5e9);
  EXPECT_NEAR(static_cast<double>(m.ActiveParamCount()), 13e9, 2e9);
  EXPECT_LT(m.ActiveParamCount(), m.ParamCount());
}

TEST(MoeSpecTest, DenseActiveEqualsTotal) {
  ModelSpec m = ModelSpec::Llama3_8B();
  EXPECT_FALSE(m.is_moe());
  EXPECT_EQ(m.ActiveParamCount(), m.ParamCount());
}

TEST(MoeSpecTest, FineGrainedMoePreset) {
  ModelSpec m = ModelSpec::DeepSeekMoe16B();
  EXPECT_EQ(m.num_experts, 64);
  EXPECT_NEAR(static_cast<double>(m.ParamCount()), 16e9, 4e9);
}

class MoeCostTest : public ::testing::Test {
 protected:
  MoeCostTest()
      : moe_(ModelSpec::Mixtral8x7B(), hw::NpuSpec::Gen2(), ParallelismConfig{4, 1, 1}) {}
  CostModel moe_;
};

TEST_F(MoeCostTest, SmallBatchReadsOnlyTouchedExperts) {
  // One decode token touches top-k=2 experts per layer, not all 8.
  double one = moe_.WeightReadBytes(1);
  double all = static_cast<double>(moe_.model().WeightBytes());
  EXPECT_LT(one, 0.5 * all);
  // A large batch touches every expert: reads converge to the full weights.
  EXPECT_NEAR(moe_.WeightReadBytes(512), all, all * 0.01);
}

TEST_F(MoeCostTest, MoeDecodeCheaperThanDenseOfSameTotalSize) {
  // A dense model with Mixtral's TOTAL parameter count decodes slower at
  // small batch: it must stream all weights while MoE streams top-k experts.
  ModelSpec dense = ModelSpec::Mixtral8x7B();
  dense.num_experts = 0;
  dense.experts_per_token = 0;
  dense.intermediate_dim *= 8;  // fold the 8 experts into one giant MLP
  dense.name = "dense-47b";
  CostModel dense_cost(dense, hw::NpuSpec::Gen2(), ParallelismConfig{4, 1, 1});
  EXPECT_LT(moe_.DecodeStepDuration(1, 1024), dense_cost.DecodeStepDuration(1, 1024));
}

TEST_F(MoeCostTest, AeModeSplitsTheStep) {
  CostModel ae(ModelSpec::Mixtral8x7B(), hw::NpuSpec::Gen2(), ParallelismConfig{4, 1, 1});
  AeDisaggConfig config;
  config.enabled = true;
  ae.SetAeDisagg(config);
  // With a fast link, AE decode is no slower than ~the colocated step (the
  // two device pipelines overlap), and not absurdly faster either.
  DurationNs coloc = moe_.DecodeStepDuration(16, 2048);
  DurationNs split = ae.DecodeStepDuration(16, 2048);
  EXPECT_LT(split, coloc);
  EXPECT_GT(split, coloc / 4);
}

TEST_F(MoeCostTest, AeSlowLinkBecomesBottleneck) {
  AeDisaggConfig fast;
  fast.enabled = true;
  fast.activation_link_gbps = 200.0;
  AeDisaggConfig slow;
  slow.enabled = true;
  slow.activation_link_gbps = 0.4;
  CostModel fast_cost(ModelSpec::Mixtral8x7B(), hw::NpuSpec::Gen2(), {4, 1, 1});
  fast_cost.SetAeDisagg(fast);
  CostModel slow_cost(ModelSpec::Mixtral8x7B(), hw::NpuSpec::Gen2(), {4, 1, 1});
  slow_cost.SetAeDisagg(slow);
  EXPECT_GT(slow_cost.DecodeStepDuration(64, 2048), 2 * fast_cost.DecodeStepDuration(64, 2048));
}

TEST_F(MoeCostTest, AeFreesHbmForKv) {
  CostModel ae(ModelSpec::Mixtral8x7B(), hw::NpuSpec::Gen2(), ParallelismConfig{4, 1, 1});
  AeDisaggConfig config;
  config.enabled = true;
  ae.SetAeDisagg(config);
  // The attention TE sheds the expert weights (~96% of Mixtral's bytes),
  // growing the KV budget substantially (bounded by how much of HBM the
  // weights occupied in the first place).
  EXPECT_GT(ae.MaxKvTokensPerNpu(0.9),
            static_cast<int64_t>(1.5 * static_cast<double>(moe_.MaxKvTokensPerNpu(0.9))));
}

TEST(MoeEngineTest, AeEngineServesRequests) {
  sim::Simulator sim;
  flowserve::EngineConfig config;
  config.model = ModelSpec::Mixtral8x7B();
  config.parallelism = {4, 1, 1};
  config.ae_disagg.enabled = true;
  flowserve::Engine engine(&sim, config);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    workload::RequestSpec spec;
    spec.id = static_cast<workload::RequestId>(i + 1);
    spec.decode_len = 64;
    std::vector<TokenId> tokens;
    for (int j = 0; j < 1024; ++j) {
      tokens.push_back(static_cast<TokenId>(300 + 701 * i + j % 4000));
    }
    spec.prompt = std::move(tokens);
    engine.Submit(spec, {nullptr, [&](const flowserve::Sequence&) { ++done; }});
  }
  sim.Run();
  EXPECT_EQ(done, 4);
  // The AE engine's KV budget reflects the attention-only weight footprint.
  flowserve::EngineConfig coloc = config;
  coloc.ae_disagg.enabled = false;
  sim::Simulator sim2;
  flowserve::Engine coloc_engine(&sim2, coloc);
  EXPECT_GT(engine.kv_block_capacity(), coloc_engine.kv_block_capacity());
}

}  // namespace
}  // namespace deepserve::model
