#include <gtest/gtest.h>

#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "hw/npu.h"
#include "model/cost_model.h"
#include "model/model_spec.h"
#include "model/tokenizer.h"

namespace deepserve::model {
namespace {

TEST(ModelSpecTest, ParamCountsInExpectedRange) {
  // Each preset's computed parameter count should land near its nameplate.
  EXPECT_NEAR(static_cast<double>(ModelSpec::Llama3_8B().ParamCount()), 8e9, 1.5e9);
  EXPECT_NEAR(static_cast<double>(ModelSpec::Llama2_13B().ParamCount()), 13e9, 2e9);
  EXPECT_NEAR(static_cast<double>(ModelSpec::Yi34B().ParamCount()), 34e9, 4e9);
  EXPECT_NEAR(static_cast<double>(ModelSpec::Llama3_70B().ParamCount()), 70e9, 8e9);
  EXPECT_NEAR(static_cast<double>(ModelSpec::Qwen2_72B().ParamCount()), 72e9, 8e9);
}

TEST(ModelSpecTest, WeightBytesIsFp16Params) {
  ModelSpec m = ModelSpec::Llama3_8B();
  EXPECT_EQ(m.WeightBytes(), static_cast<Bytes>(m.ParamCount()) * 2);
}

TEST(ModelSpecTest, KvBytesPerTokenUsesGqa) {
  ModelSpec m = ModelSpec::Llama3_8B();
  // 2 (K+V) * 32 layers * 8 kv heads * 128 dim * 2 bytes = 128 KiB/token.
  EXPECT_EQ(m.KvBytesPerToken(), 2ull * 32 * 8 * 128 * 2);
}

TEST(ModelSpecTest, PresetLookup) {
  EXPECT_TRUE(ModelSpec::Preset("llama3-8b").ok());
  EXPECT_TRUE(ModelSpec::Preset("34b").ok());
  EXPECT_EQ(ModelSpec::Preset("34b").value().name, "yi-34b");
  EXPECT_FALSE(ModelSpec::Preset("gpt-17").ok());
}

TEST(ModelSpecTest, WeightBytesPerNpuShardsOverTpPp) {
  ModelSpec m = ModelSpec::Llama3_70B();
  Bytes full = m.WeightBytes();
  EXPECT_EQ(WeightBytesPerNpu(m, {4, 1, 1}), full / 4);
  EXPECT_EQ(WeightBytesPerNpu(m, {4, 2, 1}), full / 8);
  EXPECT_EQ(WeightBytesPerNpu(m, {1, 1, 2}), full);  // DP replicates
}

TEST(AttendedTokensTest, ClosedForm) {
  EXPECT_EQ(AttendedTokens(0, 1), 1);
  EXPECT_EQ(AttendedTokens(0, 4), 10);  // 1+2+3+4
  EXPECT_EQ(AttendedTokens(100, 4), 400 + 10);
  EXPECT_EQ(AttendedTokens(0, 0), 0);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : cost_(ModelSpec::Yi34B(), hw::NpuSpec::Gen2(), ParallelismConfig{4, 1, 1}) {}
  CostModel cost_;
};

TEST_F(CostModelTest, EmptyStepIsFree) {
  EXPECT_EQ(cost_.StepDuration(StepShape{}), 0);
}

TEST_F(CostModelTest, PrefillScalesSuperlinearlyWithPromptLength) {
  DurationNs t2k = cost_.PrefillDuration(2048);
  DurationNs t4k = cost_.PrefillDuration(4096);
  DurationNs t8k = cost_.PrefillDuration(8192);
  EXPECT_GT(t4k, 2 * t2k - MsToNs(2));  // at least linear
  EXPECT_GT(t8k, 2 * t4k);                        // quadratic term bites
}

TEST_F(CostModelTest, PrefillLatencyPlausibleFor34BTp4) {
  // A 2K prefill of a 34B model on 4 x Gen2 NPUs should land in the hundreds
  // of milliseconds (the paper's TTFTs in Fig. 4 are in this regime).
  double t_ms = NsToMs(cost_.PrefillDuration(2048));
  EXPECT_GT(t_ms, 50.0);
  EXPECT_LT(t_ms, 2000.0);
}

TEST_F(CostModelTest, DecodeStepIsMemoryBoundAndPlausible) {
  // Single-sequence decode: dominated by the weight read.
  double t_ms = NsToMs(cost_.DecodeStepDuration(1, 2048));
  EXPECT_GT(t_ms, 5.0);
  EXPECT_LT(t_ms, 60.0);
}

TEST_F(CostModelTest, DecodeBatchingAmortizesWeightRead) {
  // 32-way batched decode must be far cheaper than 32 single steps.
  DurationNs batched = cost_.DecodeStepDuration(32, 2048);
  DurationNs single = cost_.DecodeStepDuration(1, 2048);
  EXPECT_LT(batched, 8 * single);
  EXPECT_GT(batched, single);  // KV reads still grow with batch
}

TEST_F(CostModelTest, DecodeCostGrowsWithContext) {
  EXPECT_GT(cost_.DecodeStepDuration(16, 8192), cost_.DecodeStepDuration(16, 512));
}

TEST_F(CostModelTest, MoreTpReducesStepTime) {
  CostModel tp8(ModelSpec::Yi34B(), hw::NpuSpec::Gen2(), ParallelismConfig{8, 1, 1});
  EXPECT_LT(tp8.PrefillDuration(4096), cost_.PrefillDuration(4096));
}

TEST_F(CostModelTest, KvBytesPerNpuShards) {
  EXPECT_EQ(cost_.KvBytesPerTokenPerNpu(), cost_.KvBytesPerToken() / 4);
}

TEST_F(CostModelTest, MaxKvTokensPositiveAndBounded) {
  int64_t tokens = cost_.MaxKvTokensPerNpu();
  EXPECT_GT(tokens, 10000);   // tens of thousands of tokens fit
  EXPECT_LT(tokens, 5000000);
}

TEST_F(CostModelTest, MaxKvTokensZeroWhenWeightsDontFit) {
  // 70B on a single Gen1 NPU (32 GiB) cannot even hold its weights.
  CostModel tight(ModelSpec::Llama3_70B(), hw::NpuSpec::Gen1(), ParallelismConfig{1, 1, 1});
  EXPECT_EQ(tight.MaxKvTokensPerNpu(), 0);
}

// The KV budget is kHbmUtilization of HBM less the weight shard, in whole
// tokens, and FitsHbm's gate agrees with it at the boundary.
TEST_F(CostModelTest, MaxKvTokensFillsTheUtilizationTarget) {
  const ModelSpec model = ModelSpec::Yi34B();
  const hw::NpuSpec npu = hw::NpuSpec::Gen2();
  const ParallelismConfig parallelism{4, 1, 1};
  Bytes budget = static_cast<Bytes>(static_cast<double>(npu.hbm_capacity) * 0.90);
  Bytes kv_room = budget - WeightBytesPerNpu(model, parallelism);
  int64_t tokens = cost_.MaxKvTokensPerNpu();
  EXPECT_EQ(tokens, static_cast<int64_t>(kv_room / cost_.KvBytesPerTokenPerNpu()));
  EXPECT_TRUE(FitsHbm(model, npu, parallelism, tokens));
  EXPECT_FALSE(FitsHbm(model, npu, parallelism, tokens + 1));
}

TEST_F(CostModelTest, ChunkedStepMixesPrefillAndDecode) {
  StepShape mixed;
  mixed.prefill_tokens = 512;
  mixed.prefill_attended_tokens = AttendedTokens(0, 512);
  mixed.decode_seqs = 16;
  mixed.decode_context_tokens = 16 * 2048;
  DurationNs both = cost_.StepDuration(mixed);

  StepShape decode_only;
  decode_only.decode_seqs = 16;
  decode_only.decode_context_tokens = 16 * 2048;
  // Piggybacked prefill slows the decode step (the interference PD
  // disaggregation removes).
  EXPECT_GT(both, cost_.StepDuration(decode_only));
}

// Parameterized sweep: step duration is monotone in every StepShape field.
class CostModelMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(CostModelMonotoneTest, MonotoneInPrefillTokens) {
  CostModel cost(ModelSpec::Llama3_8B(), hw::NpuSpec::Gen2(), ParallelismConfig{1, 1, 1});
  int64_t base = GetParam();
  EXPECT_LE(cost.PrefillDuration(base), cost.PrefillDuration(base * 2));
  EXPECT_LE(cost.DecodeStepDuration(base / 64 + 1, 1024),
            cost.DecodeStepDuration(base / 32 + 2, 1024));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CostModelMonotoneTest,
                         ::testing::Values(64, 256, 1024, 4096, 16384));

TEST(TokenizerTest, Deterministic) {
  Tokenizer t1;
  Tokenizer t2;
  auto a = t1.Encode("the quick brown fox jumps over the lazy dog");
  auto b = t2.Encode("the quick brown fox jumps over the lazy dog");
  EXPECT_EQ(a, b);
}

TEST(TokenizerTest, PrefixProperty) {
  Tokenizer t;
  auto full = t.Encode("system prompt about cloud serving then a user question");
  auto prefix = t.Encode("system prompt about cloud serving");
  ASSERT_LE(prefix.size(), full.size());
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i], full[i]);
  }
}

TEST(TokenizerTest, LongWordsSplit) {
  Tokenizer t;
  auto ids = t.Encode("internationalization");
  EXPECT_GE(ids.size(), 3u);  // 20 chars / 6-char pieces
}

TEST(TokenizerTest, PunctuationGetsByteIds) {
  Tokenizer t;
  auto ids = t.Encode("a,b");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[1], static_cast<TokenId>(','));
}

TEST(TokenizerTest, IdsStayInVocab) {
  Tokenizer t(1000);
  auto ids = t.Encode("some words of varying lengths including sesquipedalian ones");
  for (TokenId id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 1000);
  }
}

TEST(TokenizerTest, DecodeRoundTripsSeenText) {
  Tokenizer t;
  auto ids = t.Encode("hello world");
  EXPECT_EQ(t.Decode(ids), "hello world");
}

TEST(TokenizerTest, EncodeDurationScalesWithTokens) {
  Tokenizer t;
  EXPECT_GT(t.EncodeDuration(1000), t.EncodeDuration(10));
}

TEST(TokenizerTest, EmptyInput) {
  Tokenizer t;
  EXPECT_TRUE(t.Encode("").empty());
  EXPECT_TRUE(t.Encode("   \n\t ").empty());
}

}  // namespace
}  // namespace deepserve::model
