#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "common/types.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "serving/cluster_manager.h"
#include "serving/heatmap.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/prompt_tree.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"
#include "job_ledger.h"

namespace deepserve::serving {
namespace {

using workload::RequestSpec;

// ---------------- Heatmap ----------------

TEST(PdHeatmapTest, BucketLookupAndSign) {
  PdHeatmap map({1024, 4096}, {0.1, 1.0});
  map.Add(512, 0.05, 1.5);    // row 0, col 0
  map.Add(2048, 0.5, -0.4);   // row 1, col 1
  EXPECT_GT(map.Value(800, 0.08), 0);
  EXPECT_LT(map.Value(4000, 0.9), 0);
  EXPECT_TRUE(map.PreferDisaggregated(700, 35));    // ratio 0.05 -> cell (0,0)
  EXPECT_FALSE(map.PreferDisaggregated(2048, 1024));
}

TEST(PdHeatmapTest, OutOfRangeClampsToLastBucket) {
  PdHeatmap map({1024}, {1.0});
  map.Add(999999, 50.0, 2.0);
  EXPECT_GT(map.Value(1, 0.001), 0);  // single cell caught everything
}

TEST(PdHeatmapTest, ElementWiseCombineAcrossRps) {
  PdHeatmap map({1024}, {1.0});
  map.Add(512, 0.5, 1.0);   // RPS level 1
  map.Add(512, 0.5, -0.2);  // RPS level 2
  EXPECT_NEAR(map.Value(512, 0.5), 0.8, 1e-9);
}

TEST(PdHeatmapTest, SerializeParseRoundTrip) {
  PdHeatmap map = PdHeatmap::Default();
  auto parsed = PdHeatmap::Parse(map.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows(), map.rows());
  EXPECT_EQ(parsed->cols(), map.cols());
  EXPECT_DOUBLE_EQ(parsed->SignAgreement(map), 1.0);
}

TEST(PdHeatmapTest, ParseRejectsGarbage) {
  EXPECT_FALSE(PdHeatmap::Parse("").ok());
  EXPECT_FALSE(PdHeatmap::Parse("2 2\n1 2\n").ok());
}

TEST(PdHeatmapTest, DefaultMatchesPaperObservations) {
  PdHeatmap map = PdHeatmap::Default();
  // Long prefill + short decode -> disaggregated.
  EXPECT_TRUE(map.PreferDisaggregated(8192, 256));
  // Short prefill + long decode -> colocated.
  EXPECT_FALSE(map.PreferDisaggregated(256, 1024));
  // Asymmetry: positive magnitudes dominate negative ones.
  double max_pos = 0;
  double max_neg = 0;
  for (size_t r = 0; r < map.rows(); ++r) {
    for (size_t c = 0; c < map.cols(); ++c) {
      max_pos = std::max(max_pos, map.cell(r, c));
      max_neg = std::max(max_neg, -map.cell(r, c));
    }
  }
  EXPECT_GT(max_pos, max_neg);
}

// ---------------- Predictors ----------------

TEST(PredictorTest, OracleIsExact) {
  OraclePredictor oracle;
  RequestSpec spec;
  spec.decode_len = 321;
  EXPECT_EQ(oracle.Predict(spec), 321);
}

TEST(PredictorTest, NoisyAccuracyApproximatelyHolds) {
  NoisyPredictor predictor(0.9, 7);
  RequestSpec spec;
  spec.decode_len = 200;
  int exact = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (predictor.Predict(spec) == 200) {
      ++exact;
    }
  }
  // Wrong draws can coincide with 200 occasionally; accept a band.
  EXPECT_NEAR(static_cast<double>(exact) / n, 0.9, 0.03);
}

TEST(PredictorTest, ZeroAccuracyStillInRange) {
  NoisyPredictor predictor(0.0, 11, 8, 4096);
  RequestSpec spec;
  spec.decode_len = 100;
  for (int i = 0; i < 500; ++i) {
    int64_t p = predictor.Predict(spec);
    EXPECT_GE(p, 7);
    EXPECT_LE(p, 4097);
  }
}

TEST(PredictorTest, ConstantPredictor) {
  ConstantPredictor predictor(256);
  RequestSpec spec;
  spec.decode_len = 9999;
  EXPECT_EQ(predictor.Predict(spec), 256);
}

// ---------------- TaskExecutor + JobExecutor ----------------

flowserve::EngineConfig SmallEngine(flowserve::EngineRole role) {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.role = role;
  config.kv_block_capacity_override = 8192;
  return config;
}

RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode,
                        TokenId base = 500) {
  RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < prefill; ++i) {
    tokens.push_back(base + static_cast<TokenId>(i % 9001));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() {}

  JobExecutor MakeJe(SchedulingPolicy policy) {
    JeConfig config;
    config.policy = policy;
    config.load_balance_slack = 4;
    return JobExecutor(&sim_, config, PdHeatmap::Default(), MakeOraclePredictor());
  }

  std::unique_ptr<TaskExecutor> MakeTe(TeId id, flowserve::EngineRole role) {
    TeConfig config;
    config.id = id;
    config.engine = SmallEngine(role);
    return std::make_unique<TaskExecutor>(&sim_, std::move(config));
  }

  sim::Simulator sim_;
};

TEST_F(ServingTest, UnifiedTaskCompletesThroughTe) {
  auto te = MakeTe(1, flowserve::EngineRole::kColocated);
  bool done = false;
  te->SubmitUnified(MakeRequest(1, 256, 16),
                    {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ServingTest, PdPairHandoffCompletesRequest) {
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  TimeNs first = 0;
  TimeNs finish = 0;
  prefill->SubmitPrefill(
      MakeRequest(1, 512, 64), decode.get(),
      {[&](const flowserve::Sequence& seq) { first = seq.first_token_time; },
       [&](const flowserve::Sequence& seq) { finish = seq.finish_time; }, nullptr});
  sim_.Run();
  EXPECT_GT(first, 0);
  EXPECT_GT(finish, first);
  // Work split across the two engines.
  EXPECT_GT(prefill->engine().stats().prefill_tokens_processed, 0);
  EXPECT_EQ(prefill->engine().stats().decode_tokens_generated, 0);
  EXPECT_EQ(decode->engine().stats().decode_tokens_generated, 63);
}

// The decode-side sequence must inherit the request's service class and
// explicit-cache id across the PD handoff: priority drives the decode
// engine's admission/preemption order, and context_id drives PreserveById at
// completion. (Regression: SubmitPrefilled dropped both.)
TEST_F(ServingTest, PdHandoffPreservesPriorityAndContextId) {
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  auto spec = MakeRequest(1, 512, 16);
  spec.priority = 2;
  spec.context_id = "ctx-parity";
  int priority_seen = -1;
  std::string context_seen;
  prefill->SubmitPrefill(spec, decode.get(),
                         {nullptr,
                          [&](const flowserve::Sequence& seq) {
                            priority_seen = seq.priority;
                            context_seen = seq.context_id;
                          },
                          nullptr});
  sim_.Run();
  EXPECT_EQ(priority_seen, 2);
  EXPECT_EQ(context_seen, "ctx-parity");
  // The preserved-by-id context is now matchable on the decode engine.
  EXPECT_TRUE(decode->engine().rtc().MatchByID("ctx-parity").hit());
}

TEST_F(ServingTest, JobAndTaskRecordsForColocatedRoute) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto te = MakeTe(1, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te.get());
  bool done = false;
  je.HandleRequest(MakeRequest(1, 256, 8), {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
  const JobLedger ledger = ReadJobLedger(je);
  ASSERT_EQ(ledger.jobs.size(), 1u);
  EXPECT_EQ(ledger.jobs[0].state, JobState::kCompleted);
  ASSERT_EQ(ledger.tasks.size(), 1u);
  EXPECT_EQ(ledger.tasks[0].type, TaskType::kUnified);
  EXPECT_EQ(ledger.tasks[0].state, TaskState::kCompleted);
}

// A request whose context can never fit its TE's KV terminates through the
// caller's on_error, once and after HandleRequest returns, and its job
// closes as failed.
TEST_F(ServingTest, ContextThatCanNeverFitFailsTheJob) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  TeConfig config;
  config.id = 1;
  config.engine = SmallEngine(flowserve::EngineRole::kColocated);
  config.engine.kv_block_capacity_override = 8;  // 128 tokens
  TaskExecutor te(&sim_, config);
  je.AddColocatedTe(&te);
  int completions = 0;
  std::vector<Status> errors;
  je.HandleRequest(MakeRequest(1, 512, 8),
                   {nullptr, [&](const flowserve::Sequence&) { ++completions; },
                    [&](const Status& status) { errors.push_back(status); }});
  EXPECT_TRUE(errors.empty());
  sim_.Run();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(je.stats().errors, 1);
  EXPECT_TRUE(je.table().outstanding().empty());
  const JobLedger ledger = ReadJobLedger(je);
  ASSERT_EQ(ledger.jobs.size(), 1u);
  EXPECT_EQ(ledger.jobs[0].state, JobState::kFailed);
  EXPECT_TRUE(te.engine().idle());
}

TEST_F(ServingTest, DisaggregatedJobCreatesTwoTasks) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  bool done = false;
  // Long prefill, short decode: the heatmap must route this to the PD pair.
  je.HandleRequest(MakeRequest(1, 4096, 32), {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(je.stats().routed_disaggregated, 1);
  const JobLedger ledger = ReadJobLedger(je);
  ASSERT_EQ(ledger.tasks.size(), 2u);
  EXPECT_EQ(ledger.tasks[0].type, TaskType::kPrefill);
  EXPECT_EQ(ledger.tasks[1].type, TaskType::kDecode);
  EXPECT_EQ(ledger.tasks[0].state, TaskState::kCompleted);
  EXPECT_EQ(ledger.tasks[1].state, TaskState::kCompleted);
}

// One prompt, one key chain: the JE hashes each prompt once, and the Sequence
// a request runs as shares the spec's token storage and that chain. No
// engine hashes the prompt again (prompt_hashes), so the chain it holds is
// the JE's.
TEST_F(ServingTest, ColocatedSequenceSharesPromptAndJeChain) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto te = MakeTe(1, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te.get());
  const RequestSpec spec = MakeRequest(1, 256, 8);
  workload::Prompt prompt;
  rtc::KeyChain keys;
  bool done = false;
  je.HandleRequest(spec, {[&](const flowserve::Sequence& seq) {
                            prompt = seq.prompt;
                            keys = seq.keys;
                          },
                          [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(prompt.SharesStorage(spec.prompt));
  EXPECT_EQ(keys.block_size(), JeConfig{}.block_size);
  EXPECT_EQ(keys.span().size(), 256u / 16);
  EXPECT_EQ(te->engine().stats().prompt_hashes, 0);
  EXPECT_GT(te->engine().rtc().index_nodes(), 0u);
}

TEST_F(ServingTest, PdSequencesSharePromptAndJeChain) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto prefill = MakeTe(1, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(2, flowserve::EngineRole::kDecodeOnly);
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  const RequestSpec spec = MakeRequest(1, 4096, 32);
  flowserve::Sequence prefilled;
  flowserve::Sequence decoded;
  je.HandleRequest(spec, {[&](const flowserve::Sequence& seq) {
                            prefilled.prompt = seq.prompt;
                            prefilled.keys = seq.keys;
                          },
                          [&](const flowserve::Sequence& seq) {
                            decoded.prompt = seq.prompt;
                            decoded.keys = seq.keys;
                          },
                          nullptr});
  sim_.Run();
  ASSERT_EQ(je.stats().routed_disaggregated, 1);
  ASSERT_EQ(decode->engine().stats().completed, 1);
  EXPECT_TRUE(prefilled.prompt.SharesStorage(spec.prompt));
  EXPECT_TRUE(decoded.prompt.SharesStorage(spec.prompt));
  EXPECT_EQ(prefilled.keys.span().size(), 4096u / 16);
  EXPECT_TRUE(decoded.keys.SharesStorage(prefilled.keys));
  EXPECT_EQ(prefill->engine().stats().prompt_hashes, 0);
  EXPECT_EQ(decode->engine().stats().prompt_hashes, 0);
  // Both sides committed the prompt under the shared chain.
  EXPECT_GT(prefill->engine().rtc().index_nodes(), 0u);
  EXPECT_GT(decode->engine().rtc().index_nodes(), 0u);
}

// An engine whose block size differs from the JE's cannot use the JE's chain:
// it hashes the prompt itself, and its RTC matches come out exactly as when
// the JE hashes at the engine's block size.
TEST(JeChainTest, BlockSizeMismatchMatchesLikeMatchingChain) {
  struct Outcome {
    int64_t match_hits, matched_tokens, reused_tokens, prompt_hashes;
  };
  auto run = [](int je_block_size) {
    sim::Simulator sim;
    JeConfig je_config;
    je_config.block_size = je_block_size;
    JobExecutor je(&sim, je_config, PdHeatmap::Default(), MakeOraclePredictor());
    TeConfig te_config;
    te_config.id = 1;
    te_config.engine = SmallEngine(flowserve::EngineRole::kColocated);
    te_config.engine.block_size = 32;
    TaskExecutor te(&sim, te_config);
    je.AddColocatedTe(&te);
    for (int i = 0; i < 8; ++i) {
      // Growing prompts over one base: each request reuses its predecessors.
      RequestSpec spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 300 + 40 * i, 4);
      sim.ScheduleAt(MsToNs(200 * i), [&je, spec] { je.HandleRequest(spec, {}); });
    }
    sim.Run();
    EXPECT_EQ(te.engine().stats().completed, 8);
    const rtc::RtcStats& rtc = te.engine().rtc().stats();
    return Outcome{rtc.match_hits, rtc.matched_tokens, te.engine().stats().reused_tokens,
                   te.engine().stats().prompt_hashes};
  };
  const Outcome matching = run(32);
  const Outcome mismatched = run(16);
  EXPECT_GT(matching.match_hits, 0);
  EXPECT_EQ(mismatched.match_hits, matching.match_hits);
  EXPECT_EQ(mismatched.matched_tokens, matching.matched_tokens);
  EXPECT_EQ(mismatched.reused_tokens, matching.reused_tokens);
  EXPECT_EQ(matching.prompt_hashes, 0);
  EXPECT_EQ(mismatched.prompt_hashes, 8);
}

TEST_F(ServingTest, PdAwareRoutesByShape) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto coloc = MakeTe(1, flowserve::EngineRole::kColocated);
  auto prefill = MakeTe(2, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(3, flowserve::EngineRole::kDecodeOnly);
  je.AddColocatedTe(coloc.get());
  je.AddPrefillTe(prefill.get());
  je.AddDecodeTe(decode.get());
  // Long prefill / short decode -> disaggregated; the opposite -> colocated.
  je.HandleRequest(MakeRequest(1, 8192, 64), {nullptr, nullptr, nullptr});
  je.HandleRequest(MakeRequest(2, 256, 512), {nullptr, nullptr, nullptr});
  sim_.Run();
  EXPECT_EQ(je.stats().routed_disaggregated, 1);
  EXPECT_EQ(je.stats().routed_colocated, 1);
}

TEST_F(ServingTest, RoundRobinAlternatesSlots) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  for (int i = 0; i < 6; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 64, 4), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_EQ(te1->engine().stats().submitted, 3);
  EXPECT_EQ(te2->engine().stats().submitted, 3);
}

TEST_F(ServingTest, LocalityAwareRoutesSharedPrefixToSameTe) {
  auto je = MakeJe(SchedulingPolicy::kCombined);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  // Two families with distinct shared prefixes, staggered in time so later
  // members can reuse the KV the earlier ones preserved.
  for (int i = 0; i < 4; ++i) {
    sim_.ScheduleAt(SToNs(static_cast<double>(i) * 2.0), [&je, i] {
      je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(10 + i), 512, 2, 1000), {nullptr, nullptr, nullptr});
      je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(20 + i), 512, 2, 25000), {nullptr, nullptr, nullptr});
    });
  }
  sim_.Run();
  EXPECT_GT(je.stats().locality_hits, 0);
  // Each prefix family consistently landed on one TE: both TEs got work and
  // their RTC caches saw reuse.
  EXPECT_GT(te1->engine().stats().submitted, 0);
  EXPECT_GT(te2->engine().stats().submitted, 0);
  EXPECT_GT(te1->engine().stats().reused_tokens + te2->engine().stats().reused_tokens, 0);
}

// ---------------- Locality pick ----------------

struct FakeTe {
  TeId te_id = 0;
  int64_t depth = 0;
  TeId id() const { return te_id; }
  int64_t queue_depth() const { return depth; }
};

// The locality pick as a full tally: every TE's deepest tagged node on the
// match path, then the deepest TE, ties to the lower queue depth and then to
// the earlier candidate. Returns the pick and whether its depth is non-zero.
std::pair<FakeTe*, bool> TallyPick(const PromptTree::MatchResult& match,
                                   const std::vector<FakeTe*>& tes) {
  std::map<TeId, size_t> depth_by_te;
  auto tally = [&](const PromptTree::Node* node, size_t depth) {
    for (TeId te : node->value.tes) {
      depth_by_te[te] = std::max(depth_by_te[te], depth);
    }
  };
  for (const PromptTree::Node* node : match.path) {
    tally(node, node->depth);
  }
  if (match.partial != nullptr) {
    tally(match.partial, match.partial->depth - match.partial->edge.size() + match.partial_len);
  }
  FakeTe* best = nullptr;
  size_t best_depth = 0;
  for (FakeTe* te : tes) {
    auto it = depth_by_te.find(te->id());
    size_t depth = it == depth_by_te.end() ? 0 : it->second;
    if (best == nullptr || depth > best_depth ||
        (depth == best_depth && te->queue_depth() < best->queue_depth())) {
      best = te;
      best_depth = depth;
    }
  }
  return {best, best_depth > 0};
}

std::vector<rtc::BlockKey> RandomKeys(Rng& rng, size_t max_len) {
  std::vector<rtc::BlockKey> keys(
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(max_len))));
  for (rtc::BlockKey& k : keys) {
    k = static_cast<rtc::BlockKey>(rng.UniformInt(1, 4));
  }
  return keys;
}

TEST(LocalityPickTest, DeepestTaggedNodeAgreesWithFullTally) {
  for (uint64_t seed : {1ull, 12ull, 77ull, 250ull}) {
    Rng rng(seed);
    PromptTree tree;
    std::vector<FakeTe> fleet(12);
    for (size_t i = 0; i < fleet.size(); ++i) {
      fleet[i].te_id = static_cast<TeId>(i);
    }
    int hits = 0;
    int misses = 0;
    int partials = 0;
    for (int round = 0; round < 600; ++round) {
      // Route a prompt: tag its whole path, as the JE does. Ids 10 and 11
      // never show up among the candidates below (stale tags).
      std::vector<rtc::BlockKey> routed = RandomKeys(rng, 9);
      if (!routed.empty()) {
        TeId te = static_cast<TeId>(rng.UniformInt(0, 11));
        for (PromptTree::Node* n = tree.Insert(routed, round); n->parent != nullptr;
             n = n->parent) {
          n->value.Add(te);
        }
      }
      if (tree.NodeCount() > 40) {
        tree.ScanLruLeaves([&](PromptTree::Node&) {
          return tree.NodeCount() > 30 ? rtc::LruStep::kRemove : rtc::LruStep::kStop;
        });
      }
      // A random candidate subset in random order, with queue-depth ties.
      std::vector<FakeTe*> candidates;
      for (size_t i = 0; i < 10; ++i) {
        fleet[i].depth = rng.UniformInt(0, 2);
        if (rng.NextDouble() < 0.5) {
          candidates.push_back(&fleet[i]);
        }
      }
      if (candidates.empty()) {
        candidates.push_back(&fleet[static_cast<size_t>(rng.UniformInt(0, 9))]);
      }
      for (size_t i = candidates.size(); i > 1; --i) {
        std::swap(candidates[i - 1],
                  candidates[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }
      PromptTree::MatchResult match = tree.Match(RandomKeys(rng, 11));
      bool hit = false;
      FakeTe* picked = LocalityPick(match, candidates, &hit);
      auto [expected, expected_hit] = TallyPick(match, candidates);
      ASSERT_EQ(picked, expected) << "seed " << seed << " round " << round;
      ASSERT_EQ(hit, expected_hit) << "seed " << seed << " round " << round;
      (hit ? hits : misses) += 1;
      partials += match.partial != nullptr ? 1 : 0;
    }
    // Both outcomes, and partial-edge matches, are exercised.
    EXPECT_GT(hits, 100) << "seed " << seed;
    EXPECT_GT(misses, 20) << "seed " << seed;
    EXPECT_GT(partials, 20) << "seed " << seed;
  }
}

TEST(LocalityPickTest, TePresenceStaysSortedAndDistinct) {
  TePresence presence;
  for (TeId te : {5, 2, 9, 2, 5, 0}) {
    presence.Add(te);
  }
  EXPECT_EQ(presence.tes, (std::vector<TeId>{0, 2, 5, 9}));
  EXPECT_TRUE(presence.Has(9));
  EXPECT_FALSE(presence.Has(3));
}

TEST_F(ServingTest, LoadAwareKicksInWhenUnbalanced) {
  JeConfig config;
  config.policy = SchedulingPolicy::kCombined;
  config.load_balance_slack = 0;  // any imbalance triggers load-aware
  JobExecutor je(&sim_, config, PdHeatmap::Default(), MakeOraclePredictor());
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  // Same prefix every time: pure locality would pile everything on one TE,
  // but load-aware spreads once the queue gap exceeds the slack.
  for (int i = 0; i < 8; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 2048, 64, 777), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_GT(je.stats().load_decisions, 0);
  EXPECT_GT(te1->engine().stats().submitted, 0);
  EXPECT_GT(te2->engine().stats().submitted, 0);
}

TEST_F(ServingTest, RemoveTeStopsRouting) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  je.RemoveTe(1);
  for (int i = 0; i < 4; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 64, 2), {nullptr, nullptr, nullptr});
  }
  sim_.Run();
  EXPECT_EQ(te1->engine().stats().submitted, 0);
  EXPECT_EQ(te2->engine().stats().submitted, 4);
}

// Membership spans all three groups: RemoveTe finds a TE whichever group it
// joined, and ReadyCapacityWeight counts ready colocated TEs plus ready PD
// pairs (the scarcer side bounds the pairs).
TEST_F(ServingTest, RemoveTeAndCapacityWeightSpanEveryGroup) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto coloc = MakeTe(1, flowserve::EngineRole::kColocated);
  auto prefill1 = MakeTe(2, flowserve::EngineRole::kPrefillOnly);
  auto prefill2 = MakeTe(3, flowserve::EngineRole::kPrefillOnly);
  auto decode = MakeTe(4, flowserve::EngineRole::kDecodeOnly);
  je.AddColocatedTe(coloc.get());
  je.AddPrefillTe(prefill1.get());
  je.AddPrefillTe(prefill2.get());
  je.AddDecodeTe(decode.get());
  EXPECT_EQ(je.ReadyCapacityWeight(), 2);
  prefill1->set_state(TeState::kStopped);
  EXPECT_EQ(je.ReadyCapacityWeight(), 2);
  EXPECT_TRUE(je.RemoveTe(4));
  EXPECT_EQ(je.ReadyCapacityWeight(), 1);
  EXPECT_FALSE(je.RemoveTe(4));
  EXPECT_FALSE(je.RemoveTe(99));
  EXPECT_TRUE(je.RemoveTe(3));
  EXPECT_TRUE(je.RemoveTe(1));
  EXPECT_EQ(je.ReadyCapacityWeight(), 0);
}

TEST_F(ServingTest, NonReadyTesAreSkipped) {
  auto je = MakeJe(SchedulingPolicy::kRoundRobin);
  auto te1 = MakeTe(1, flowserve::EngineRole::kColocated);
  auto te2 = MakeTe(2, flowserve::EngineRole::kColocated);
  te1->set_state(TeState::kStopped);
  je.AddColocatedTe(te1.get());
  je.AddColocatedTe(te2.get());
  je.HandleRequest(MakeRequest(1, 64, 2), {nullptr, nullptr, nullptr});
  sim_.Run();
  EXPECT_EQ(te1->engine().stats().submitted, 0);
  EXPECT_EQ(te2->engine().stats().submitted, 1);
}

// ---------------- ClusterManager: scaling ----------------

class ScalingTest : public ::testing::Test {
 protected:
  ScalingTest()
      : cluster_(&sim_, MakeClusterConfig()),
        transfer_(&sim_, &cluster_, {}) {}

  static hw::ClusterConfig MakeClusterConfig() {
    hw::ClusterConfig config;
    config.num_machines = 8;
    config.machines_per_scaleup_domain = 4;
    return config;
  }

  ClusterManager MakeManager(ScalingOptimizations opts) {
    return ClusterManager(&sim_, &cluster_, &transfer_, opts);
  }

  sim::Simulator sim_;
  hw::Cluster cluster_;
  distflow::TransferEngine transfer_;
};

TEST_F(ScalingTest, CreateReadyTeAllocatesNpus) {
  auto manager = MakeManager({});
  auto te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated));
  ASSERT_TRUE(te.ok());
  EXPECT_TRUE((*te)->ready());
  EXPECT_EQ((*te)->config().npus.size(), 1u);
  // Device accounting wired: engine KV traffic shows up on the NPU.
  bool done = false;
  (*te)->SubmitUnified(MakeRequest(1, 256, 8),
                       {nullptr, [&](const flowserve::Sequence&) { done = true; }, nullptr});
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ScalingTest, NpuAllocationExhausts) {
  auto manager = MakeManager({});
  auto cfg = SmallEngine(flowserve::EngineRole::kColocated);
  cfg.parallelism = {8, 1, 1};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(manager.CreateReadyTe(cfg).ok()) << i;
  }
  EXPECT_FALSE(manager.CreateReadyTe(cfg).ok());
  // Stopping one frees capacity.
  ASSERT_TRUE(manager.StopTe(1).ok());
  EXPECT_TRUE(manager.CreateReadyTe(cfg).ok());
}

TEST_F(ScalingTest, OptimizedPipelineIsMuchFasterThanBaseline) {
  auto run = [&](ScalingOptimizations opts, bool prewarm, bool preload) {
    sim::Simulator sim;
    hw::Cluster cluster(&sim, MakeClusterConfig());
    distflow::TransferEngine transfer(&sim, &cluster, {});
    ClusterManager manager(&sim, &cluster, &transfer, opts);
    if (prewarm) {
      manager.ReservePrewarmedPods(4);
      manager.ReservePrewarmedTes(4);
    }
    if (preload) {
      manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
      sim.Run();
    }
    ScaleRequest request;
    request.engine = SmallEngine(flowserve::EngineRole::kColocated);
    ScalingBreakdown breakdown;
    bool done = false;
    EXPECT_TRUE(manager
                    .ScaleUp(request,
                             [&](TaskExecutor* te, const ScalingBreakdown& b) {
                               breakdown = b;
                               done = te != nullptr;
                             })
                    .ok());
    sim.Run();
    EXPECT_TRUE(done);
    return breakdown;
  };
  ScalingBreakdown slow = run(ScalingOptimizations::AllOff(), false, false);
  ScalingBreakdown fast = run(ScalingOptimizations{}, true, true);
  EXPECT_TRUE(fast.used_prewarmed_pod);
  EXPECT_TRUE(fast.used_prewarmed_te);
  EXPECT_TRUE(fast.dram_hit);
  EXPECT_GT(slow.total(), 5 * fast.total());
  // Every stage individually improves.
  EXPECT_GT(slow.scaler_pre, fast.scaler_pre);
  EXPECT_GT(slow.te_pre_load, fast.te_pre_load);
  EXPECT_GT(slow.te_load, fast.te_load);
  EXPECT_GT(slow.te_post_load, fast.te_post_load);
  EXPECT_GT(slow.scaler_post, fast.scaler_post);
}

TEST_F(ScalingTest, DramMissStagesThroughSsd) {
  auto manager = MakeManager({});
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  ScalingBreakdown breakdown;
  ASSERT_TRUE(manager
                  .ScaleUp(request, [&](TaskExecutor*, const ScalingBreakdown& b) {
                    breakdown = b;
                  })
                  .ok());
  sim_.Run();
  EXPECT_FALSE(breakdown.dram_hit);
  EXPECT_EQ(manager.stats().dram_misses, 1);
  // A second scale-up of the same model now hits the page cache and loads
  // faster (SSD hop gone).
  ScalingBreakdown second;
  ASSERT_TRUE(manager
                  .ScaleUp(request, [&](TaskExecutor*, const ScalingBreakdown& b) {
                    second = b;
                  })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(second.dram_hit);
  EXPECT_LT(second.te_load, breakdown.te_load);
}

TEST_F(ScalingTest, NpuForkSkipsLocalLoad) {
  auto manager = MakeManager({});
  auto source = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated));
  ASSERT_TRUE(source.ok());
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  request.fork_source = (*source)->id();
  ScalingBreakdown breakdown;
  ASSERT_TRUE(manager
                  .ScaleUp(request, [&](TaskExecutor*, const ScalingBreakdown& b) {
                    breakdown = b;
                  })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(breakdown.used_npu_fork);
  EXPECT_EQ(manager.stats().npu_forks, 1);
}

TEST_F(ScalingTest, ScaleUpManyForksInParallel) {
  auto manager = MakeManager({});
  manager.ReservePrewarmedPods(64);
  manager.ReservePrewarmedTes(64);
  auto source = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated));
  ASSERT_TRUE(source.ok());
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  request.fork_source = (*source)->id();
  std::vector<TaskExecutor*> created;
  DurationNs elapsed = 0;
  ASSERT_TRUE(manager
                  .ScaleUpMany(request, 32,
                               [&](std::vector<TaskExecutor*> tes, DurationNs d) {
                                 created = std::move(tes);
                                 elapsed = d;
                               })
                  .ok());
  sim_.Run();
  EXPECT_EQ(created.size(), 32u);
  // "scale up to 64 instances in parallel within seconds": 32 forks of a
  // small model complete in single-digit seconds.
  EXPECT_LT(NsToS(elapsed), 10.0);
  for (TaskExecutor* te : created) {
    EXPECT_TRUE(te->ready());
  }
}

// EstimateScaleUpLead shares the pipeline's stage costs, so on an idle
// cluster (no link contention) it predicts the pipeline's actual total in
// each mode: cold with nothing optimized, pre-warmed with a DRAM hit, and
// NPU-fork.
TEST_F(ScalingTest, EstimateScaleUpLeadMatchesIdlePipeline) {
  auto run = [&](ScalingOptimizations opts, bool prewarm_and_preload, bool fork) {
    sim::Simulator sim;
    hw::Cluster cluster(&sim, MakeClusterConfig());
    distflow::TransferEngine transfer(&sim, &cluster, {});
    ClusterManager manager(&sim, &cluster, &transfer, opts);
    if (prewarm_and_preload) {
      manager.ReservePrewarmedPods(1);
      manager.ReservePrewarmedTes(1);
      manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
      sim.Run();
    }
    ScaleRequest request;
    request.engine = SmallEngine(flowserve::EngineRole::kColocated);
    if (fork) {
      auto source = manager.CreateReadyTe(request.engine);
      EXPECT_TRUE(source.ok());
      request.fork_source = (*source)->id();
    }
    const DurationNs estimate = manager.EstimateScaleUpLead(request);
    ScalingBreakdown breakdown;
    EXPECT_TRUE(manager
                    .ScaleUp(request,
                             [&](TaskExecutor*, const ScalingBreakdown& b) { breakdown = b; })
                    .ok());
    sim.Run();
    EXPECT_EQ(breakdown.used_npu_fork, fork);
    EXPECT_EQ(breakdown.used_prewarmed_pod, prewarm_and_preload);
    // The pipeline's flows complete on whole nanoseconds, so each load hop
    // (SSD, PCIe) may land one nanosecond after its isolated duration.
    EXPECT_GE(breakdown.total(), estimate);
    EXPECT_LE(breakdown.total(), estimate + 2);
    return estimate;
  };
  const DurationNs cold = run(ScalingOptimizations::AllOff(), false, false);
  const DurationNs warm = run(ScalingOptimizations{}, true, false);
  const DurationNs forked = run(ScalingOptimizations{}, false, true);
  EXPECT_GT(cold, warm);
  EXPECT_GT(forked, 0);
}

TEST_F(ScalingTest, ScaleUpManyRequiresSource) {
  auto manager = MakeManager({});
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  EXPECT_FALSE(manager.ScaleUpMany(request, 4, nullptr).ok());
}

TEST_F(ScalingTest, PredictivePreloadFillsPageCaches) {
  auto manager = MakeManager({});
  manager.PredictivePreload({model::ModelSpec::Tiny1B(), model::ModelSpec::Llama3_8B()});
  sim_.Run();
  for (int m = 0; m < cluster_.num_machines(); ++m) {
    EXPECT_TRUE(cluster_.machine(m)->page_cache().Contains("tiny-1b"));
    EXPECT_TRUE(cluster_.machine(m)->page_cache().Contains("llama3-8b"));
  }
}

TEST_F(ScalingTest, AutoscalerAddsTesUnderLoad) {
  auto manager = MakeManager({});
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
  sim_.Run();

  JeConfig je_config;
  je_config.policy = SchedulingPolicy::kLoadOnly;
  JobExecutor je(&sim_, je_config, PdHeatmap::Default(), MakeOraclePredictor());
  auto first = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated));
  ASSERT_TRUE(first.ok());
  je.AddColocatedTe(*first);

  AutoscalerConfig as_config;
  as_config.check_interval = MsToNs(500);
  as_config.scale_up_queue_depth = 8;
  as_config.scale_down_queue_depth = -1;  // growth only: assert on end state
  as_config.max_tes = 4;
  ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.StartAutoscaler(&je, as_config, request);

  // Slam the system with enough work to trip the threshold.
  for (int i = 0; i < 64; ++i) {
    je.HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 2048, 128,
                                 static_cast<TokenId>(100 + 37 * i)), {nullptr, nullptr, nullptr});
  }
  sim_.RunUntil(SToNs(120));
  manager.StopAutoscaler();
  sim_.Run();
  EXPECT_GT(manager.stats().scale_ups, 0);
  EXPECT_GT(je.colocated_count(), 1u);
}

}  // namespace
}  // namespace deepserve::serving
