// Heterogeneous Gen1/Gen2 placement tests: the ClusterManager's cost-aware
// NPU allocation (cheapest generation whose HBM fits, graceful fallback), the
// per-TE generation view and the engine spec placement derives from it, the
// JE's cost-aware dispatch narrowing, and randomized placement properties
// (the first TE lands on the best-scoring fitting generation, never a
// stranded placeable job, creation order monotone in
// tokens-per-second-per-dollar).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "hw/npu.h"
#include "model/cost_model.h"
#include "model/model_spec.h"
#include "serving/cluster_manager.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

// A self-contained mixed-generation control plane over the given --npu-mix
// string, with one JE wired for TE-failure re-dispatch.
class HeteroBed {
 public:
  explicit HeteroBed(const std::string& mix, bool cost_aware_je = false,
                     std::unique_ptr<serving::DecodeLengthPredictor> predictor =
                         serving::MakeOraclePredictor()) {
    hw::ClusterConfig config;
    config.machine_specs = hw::ParseNpuMix(mix).value();
    config.num_machines = static_cast<int>(config.machine_specs.size());
    cluster_ = std::make_unique<hw::Cluster>(&sim_, config);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    manager_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(),
                                                         transfer_.get());
    serving::JeConfig je_config;
    je_config.policy = serving::SchedulingPolicy::kLoadOnly;
    je_config.cost_aware = cost_aware_je;
    je_ = std::make_unique<serving::JobExecutor>(&sim_, je_config, serving::PdHeatmap::Default(),
                                                 std::move(predictor));
    manager_->AddFailureHandler([this](serving::TeId id) { je_->OnTeFailure(id); });
  }

  serving::TaskExecutor* AddColocatedTe(const flowserve::EngineConfig& config) {
    auto te = manager_->CreateReadyTe(config).value();
    je_->AddColocatedTe(te);
    endpoints_.push_back(te->id());
    return te;
  }

  void Link() {
    ASSERT_TRUE(transfer_->LinkCluster(endpoints_, nullptr).ok());
    sim_.Run();
  }

  sim::Simulator& sim() { return sim_; }
  serving::ClusterManager& manager() { return *manager_; }
  serving::JobExecutor& je() { return *je_; }

 private:
  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<serving::ClusterManager> manager_;
  std::unique_ptr<serving::JobExecutor> je_;
  std::vector<distflow::EndpointId> endpoints_;
};

flowserve::EngineConfig EngineFor(const model::ModelSpec& model, int tp) {
  flowserve::EngineConfig config;
  config.model = model;
  config.parallelism = {tp, 1, 1};
  config.role = flowserve::EngineRole::kColocated;
  return config;
}

workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode,
                                  TokenId base = 700) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < prefill; ++i) {
    tokens.push_back(base + static_cast<TokenId>(i % 8000));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

// ---------------- ClusterManager placement ----------------

TEST(HeteroPlacementTest, FirstTeLandsOnCheapestFittingGeneration) {
  HeteroBed bed("gen2:2,gen1:2");
  // Yi-34B TP4 fits both generations; Gen1's $/hr makes it the better
  // tokens-per-second-per-dollar even at half the bandwidth.
  auto* te = bed.AddColocatedTe(EngineFor(model::ModelSpec::Yi34B(), 4));
  EXPECT_EQ(bed.manager().TeSpec(te->id()).name, hw::NpuSpec::Gen1().name);
}

TEST(HeteroPlacementTest, FirstTeSkipsGenerationWhoseHbmCannotFit) {
  HeteroBed bed("gen1:2,gen2:2");
  // Llama3-70B TP4 needs ~35 GB of weights per NPU: over Gen1's 32 GB HBM,
  // comfortably inside Gen2's 64 GB.
  auto* te = bed.AddColocatedTe(EngineFor(model::ModelSpec::Llama3_70B(), 4));
  EXPECT_EQ(bed.manager().TeSpec(te->id()).name, hw::NpuSpec::Gen2().name);
}

TEST(HeteroPlacementTest, HomogeneousClusterPlacesOnInstalledGeneration) {
  HeteroBed bed("gen2:2");
  auto* te = bed.AddColocatedTe(EngineFor(model::ModelSpec::Yi34B(), 4));
  EXPECT_EQ(bed.manager().TeSpec(te->id()).name, hw::NpuSpec::Gen2().name);
}

TEST(HeteroPlacementTest, EngineSpecFollowsPlacementOnlyOnMixedClusters) {
  flowserve::EngineConfig engine = EngineFor(model::ModelSpec::Yi34B(), 4);
  engine.npu_spec = hw::NpuSpec::Gen1();
  {
    // Homogeneous Gen2: the engine keeps the Gen1 cost model it asked for.
    HeteroBed bed("gen2:2");
    auto* te = bed.AddColocatedTe(engine);
    EXPECT_EQ(bed.manager().TeSpec(te->id()).name, hw::NpuSpec::Gen2().name);
    EXPECT_EQ(te->config().engine.npu_spec.name, hw::NpuSpec::Gen1().name);
    EXPECT_EQ(te->engine().cost_model().npu().name, hw::NpuSpec::Gen1().name);
  }
  {
    // Mixed: the Gen1 machine holds two TP4 TEs, so the third lands on Gen2
    // and its engine runs the Gen2 spec.
    HeteroBed bed("gen1:1,gen2:1");
    bed.AddColocatedTe(engine);
    bed.AddColocatedTe(engine);
    auto* te = bed.AddColocatedTe(engine);
    EXPECT_EQ(bed.manager().TeSpec(te->id()).name, hw::NpuSpec::Gen2().name);
    EXPECT_EQ(te->config().engine.npu_spec.name, hw::NpuSpec::Gen2().name);
    EXPECT_EQ(te->engine().cost_model().npu().name, hw::NpuSpec::Gen2().name);
  }
}

TEST(HeteroPlacementTest, AllocationOverflowsGracefullyToNextGeneration) {
  HeteroBed bed("gen2:1,gen1:1");
  flowserve::EngineConfig engine = EngineFor(model::ModelSpec::Yi34B(), 4);
  // The single Gen1 machine holds two TP4 TEs; the third must fall through
  // to Gen2 rather than fail.
  auto* first = bed.AddColocatedTe(engine);
  auto* second = bed.AddColocatedTe(engine);
  auto* third = bed.AddColocatedTe(engine);
  EXPECT_EQ(bed.manager().TeSpec(first->id()).name, hw::NpuSpec::Gen1().name);
  EXPECT_EQ(bed.manager().TeSpec(second->id()).name, hw::NpuSpec::Gen1().name);
  EXPECT_EQ(bed.manager().TeSpec(third->id()).name, hw::NpuSpec::Gen2().name);
  // Placement rewrote each engine's spec to match.
  EXPECT_EQ(first->config().engine.npu_spec.name, hw::NpuSpec::Gen1().name);
  EXPECT_EQ(third->config().engine.npu_spec.name, hw::NpuSpec::Gen2().name);
}

TEST(HeteroPlacementTest, BlindPlacementFirstFitsTheExpensiveGeneration) {
  HeteroBed bed("gen2:2,gen1:2");
  serving::PlacementConfig placement;
  placement.hetero_aware = false;
  bed.manager().SetPlacement(placement);
  auto* te = bed.AddColocatedTe(EngineFor(model::ModelSpec::Yi34B(), 4));
  // Generation-blind first-fit starts at machine 0 — the Gen2 group.
  EXPECT_EQ(bed.manager().TeSpec(te->id()).name, hw::NpuSpec::Gen2().name);
}

// ---------------- JE cost-aware dispatch ----------------

TEST(HeteroDispatchTest, NarrowsDispatchToTheCheapGeneration) {
  HeteroBed bed("gen1:2,gen2:2", /*cost_aware_je=*/true);
  flowserve::EngineConfig engine = EngineFor(model::ModelSpec::Tiny1B(), 8);
  engine.kv_block_capacity_override = 4096;
  auto* gen1_a = bed.AddColocatedTe(engine);  // one TE per machine at TP8
  auto* gen1_b = bed.AddColocatedTe(engine);
  auto* gen2 = bed.AddColocatedTe(engine);
  bed.Link();
  ASSERT_EQ(bed.manager().TeSpec(gen1_b->id()).name, hw::NpuSpec::Gen1().name);
  ASSERT_EQ(bed.manager().TeSpec(gen2->id()).name, hw::NpuSpec::Gen2().name);

  std::set<workload::RequestId> completed;
  for (int i = 0; i < 8; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 512, 64,
                            static_cast<TokenId>(100 + 131 * i));
    bed.je().HandleRequest(spec,
                           {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
                             completed.insert(id);
                           }, nullptr});
  }
  bed.sim().Run();
  EXPECT_EQ(completed.size(), 8u);
  // Every dispatch narrowed to the Gen1 TEs; the Gen2 TE never saw work.
  EXPECT_GT(bed.je().stats().cost_narrowed, 0);
  EXPECT_EQ(bed.je().stats().cost_fallbacks, 0);
  EXPECT_EQ(gen2->engine().stats().completed, 0);
  EXPECT_GT(gen1_a->engine().stats().completed + gen1_b->engine().stats().completed, 0);
}

TEST(HeteroDispatchTest, FallsBackToFullFleetWhenNoGenerationFitsPrediction) {
  // A predictor so pessimistic that no TE's roofline KV capacity can fit
  // any request's predicted context; the actual decode lengths stay small.
  HeteroBed bed("gen1:2,gen2:2", /*cost_aware_je=*/true,
                std::make_unique<serving::ConstantPredictor>(int64_t{1} << 40));
  flowserve::EngineConfig engine = EngineFor(model::ModelSpec::Tiny1B(), 8);
  engine.kv_block_capacity_override = 4096;  // the engine itself serves fine
  bed.AddColocatedTe(engine);
  bed.AddColocatedTe(engine);
  bed.Link();

  std::set<workload::RequestId> completed;
  for (int i = 0; i < 4; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 512, 64,
                            static_cast<TokenId>(100 + 177 * i));
    bed.je().HandleRequest(spec,
                           {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
                             completed.insert(id);
                           }, nullptr});
  }
  bed.sim().Run();
  // Better a tight TE than a stranded request: dispatch fell back to the
  // unfiltered fleet and everything still completed.
  EXPECT_EQ(completed.size(), 4u);
  EXPECT_GT(bed.je().stats().cost_fallbacks, 0);
  EXPECT_EQ(bed.je().stats().cost_narrowed, 0);
}

// ---------------- Randomized placement properties ----------------

struct ModelChoice {
  model::ModelSpec model;
  int tp;
};

std::vector<ModelChoice> FeasibleModels() {
  return {
      {model::ModelSpec::Yi34B(), 4},      // fits both generations
      {model::ModelSpec::Yi34B(), 2},      // Gen2 only (~34 GB/NPU)
      {model::ModelSpec::Llama3_70B(), 4}, // Gen2 only (~35 GB/NPU)
      {model::ModelSpec::Llama2_13B(), 1}, // fits both
      {model::ModelSpec::Llama3_8B(), 1},  // fits both
      {model::ModelSpec::Qwen2_72B(), 1},  // fits nothing (~144 GB/NPU)
  };
}

std::string RandomMix(Rng& rng) {
  // 1..3 machines of each generation, either order, occasionally one-sided.
  int gen1 = static_cast<int>(rng.UniformInt(0, 3));
  int gen2 = static_cast<int>(rng.UniformInt(0, 3));
  if (gen1 == 0 && gen2 == 0) {
    gen1 = 1;
  }
  std::string a = gen1 > 0 ? "gen1:" + std::to_string(gen1) : "";
  std::string b = gen2 > 0 ? "gen2:" + std::to_string(gen2) : "";
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  return rng.UniformInt(0, 1) == 0 ? a + "," + b : b + "," + a;
}

class HeteroPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeteroPropertyTest, FirstTeLandsOnBestFittingGeneration) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    std::string mix = RandomMix(rng);
    HeteroBed bed(mix);
    ModelChoice pick = FeasibleModels()[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(FeasibleModels().size()) - 1))];
    flowserve::EngineConfig engine = EngineFor(pick.model, pick.tp);

    // Reference: which generations fit, and the best fitting score.
    std::vector<hw::NpuSpec> gens = {hw::NpuSpec::Gen1(), hw::NpuSpec::Gen2()};
    bool any_fits = false;
    double best_fitting_score = 0.0;
    std::set<std::string> fitting;
    for (const hw::NpuSpec& gen : gens) {
      if (mix.find(gen.name == hw::NpuSpec::Gen1().name ? "gen1" : "gen2") ==
          std::string::npos) {
        continue;  // generation not installed in this mix
      }
      if (model::FitsHbm(pick.model, gen, engine.parallelism, serving::kMinKvTokensPerNpu)) {
        any_fits = true;
        fitting.insert(gen.name);
        best_fitting_score = std::max(
            best_fitting_score,
            model::TokensPerSecondPerDollar(pick.model, gen, engine.parallelism));
      }
    }
    if (!any_fits) {
      continue;  // no engine can be built; placement falls back to first-fit
    }
    // On an empty cluster the first TE lands on a fitting generation, and no
    // fitting generation scores better (monotone in
    // tokens-per-second-per-dollar).
    auto te = bed.manager().CreateReadyTe(engine);
    ASSERT_TRUE(te.ok()) << "mix " << mix << ": " << te.status().ToString();
    const hw::NpuSpec& placed = bed.manager().TeSpec((*te)->id());
    EXPECT_TRUE(fitting.count(placed.name) > 0)
        << "mix " << mix << " placed on non-fitting " << placed.name;
    EXPECT_DOUBLE_EQ(model::TokensPerSecondPerDollar(pick.model, placed, engine.parallelism),
                     best_fitting_score)
        << "mix " << mix << " model " << pick.model.name;
  }
}

TEST_P(HeteroPropertyTest, PlacementNeverStrandsAPlaceableJobAndOrdersByValue) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  for (int iter = 0; iter < 6; ++iter) {
    std::string mix = RandomMix(rng);
    HeteroBed bed(mix);
    // Yi-34B TP4 fits both generations: every machine holds exactly two TEs,
    // so nothing may be stranded until the whole cluster is full.
    flowserve::EngineConfig engine = EngineFor(model::ModelSpec::Yi34B(), 4);
    int capacity = 2 * static_cast<int>(hw::ParseNpuMix(mix)->size());
    double last_score = -1.0;
    for (int i = 0; i < capacity; ++i) {
      auto te = bed.manager().CreateReadyTe(engine);
      ASSERT_TRUE(te.ok()) << "mix " << mix << " stranded TE " << i << " of " << capacity
                           << ": " << te.status().ToString();
      double score = model::TokensPerSecondPerDollar(
          engine.model, bed.manager().TeSpec((*te)->id()), engine.parallelism);
      if (last_score >= 0.0) {
        // Creation order drains generations best-value-first.
        EXPECT_LE(score, last_score + 1e-9) << "mix " << mix << " TE " << i;
      }
      last_score = score;
    }
    auto overflow = bed.manager().CreateReadyTe(engine);
    EXPECT_FALSE(overflow.ok()) << "mix " << mix << " overfilled the cluster";
    if (!overflow.ok()) {
      EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted) << "mix " << mix;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeteroPropertyTest, ::testing::Values(1ull, 7ull, 23ull));

}  // namespace
}  // namespace deepserve
