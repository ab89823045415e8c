// Routing-policy tests: rr golden parity against the pre-RoutePolicy
// frontend, p2c tie-breaking determinism, outlier ejection / half-open state
// machine, retry-budget exhaustion, and hedging.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time_units.h"
#include "distflow/distflow.h"
#include "faults/fault_injector.h"
#include "hw/cluster.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/route_policy.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

flowserve::EngineConfig SmallEngine(flowserve::EngineRole role) {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.role = role;
  config.kv_block_capacity_override = 4096;
  return config;
}

// ---------------- rr golden parity ----------------
//
// Replays a fixed Poisson trace through a Frontend over three JE replicas of
// unequal capacity (1 / 2 / 1 colocated TEs), kills one replica's only TE
// mid-run, and fingerprints every termination. The numbers below were
// captured from the pre-RoutePolicy round-robin dispatch loop; the default
// "rr" policy must reproduce them bit-for-bit.

struct GoldenRun {
  int64_t completed = 0;
  int64_t errored = 0;   // post-dispatch on_error terminations
  int64_t rejected = 0;  // pre-dispatch non-OK Status
  int64_t je_requests[3] = {0, 0, 0};
  TimeNs end_time = 0;
  uint64_t hash = 1469598103934665603ull;  // FNV-1a over every termination
};

void Mix(uint64_t* hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 1099511628211ull;
  }
}

GoldenRun RunRrGolden(uint64_t seed) {
  sim::Simulator sim;
  hw::ClusterConfig cc;
  cc.num_machines = 2;
  hw::Cluster cluster(&sim, cc);
  distflow::TransferEngine transfer(&sim, &cluster, distflow::DistFlowConfig{});
  serving::ClusterManager manager(&sim, &cluster, &transfer);

  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  std::vector<std::unique_ptr<serving::JobExecutor>> jes;
  std::vector<serving::TaskExecutor*> tes;  // tes[i] belongs to jes[te_owner[i]]
  const int te_counts[3] = {1, 2, 1};
  for (int i = 0; i < 3; ++i) {
    jes.push_back(std::make_unique<serving::JobExecutor>(
        &sim, je_config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor()));
    for (int t = 0; t < te_counts[i]; ++t) {
      auto te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated));
      DS_CHECK(te.ok()) << te.status().ToString();
      jes.back()->AddColocatedTe(*te);
      tes.push_back(*te);
    }
  }
  manager.AddFailureHandler([&jes](serving::TeId id) {
    for (auto& je : jes) {
      je->OnTeFailure(id);
    }
  });

  serving::Frontend frontend(&sim);
  for (auto& je : jes) {
    frontend.RegisterServingJe("tiny-1b", je.get());
  }

  auto trace_config = workload::TraceGenerator::InternalTrace(8.0, 20.0, seed);
  trace_config.prefill = {256, 0.5, 32, 1024};
  trace_config.decode = {96, 0.5, 8, 384};
  auto trace = workload::TraceGenerator(trace_config).Generate();

  GoldenRun run;
  for (const auto& spec : trace) {
    sim.ScheduleAt(spec.arrival, [&sim, &frontend, &run, spec] {
      serving::ChatRequest request;
      request.model = "tiny-1b";
      request.spec = spec;
      serving::ResponseHandler handler;
      handler.on_complete = [&run, &sim, id = spec.id](const flowserve::Sequence& seq) {
        ++run.completed;
        Mix(&run.hash, static_cast<uint64_t>(id) * 3);
        Mix(&run.hash, static_cast<uint64_t>(seq.first_token_time));
        Mix(&run.hash, static_cast<uint64_t>(seq.finish_time));
        run.end_time = sim.Now();
      };
      handler.on_error = [&run, &sim, id = spec.id](const Status&) {
        ++run.errored;
        Mix(&run.hash, static_cast<uint64_t>(id) * 3 + 1);
        Mix(&run.hash, static_cast<uint64_t>(sim.Now()));
        run.end_time = sim.Now();
      };
      // Pre-dispatch rejections are reported through the returned Status (and
      // counted here via the Status alone, so this harness pins the same
      // numbers on both sides of the exactly-once semantics change).
      if (!frontend.ChatCompletion(request, std::move(handler)).ok()) {
        ++run.rejected;
        Mix(&run.hash, static_cast<uint64_t>(spec.id) * 3 + 2);
      }
    });
  }
  // Replica 2's only TE dies mid-run: its in-flight work errors out (no other
  // TE inside that JE) and the rotation must skip it from then on.
  sim.ScheduleAt(SToNs(6.0), [&manager, &tes] {
    auto killed = manager.KillTe(tes[3]->id());
    DS_CHECK(killed.ok()) << killed.status().ToString();
  });
  sim.Run();
  for (int i = 0; i < 3; ++i) {
    run.je_requests[i] = jes[i]->stats().requests;
  }
  return run;
}

TEST(RoutePolicyGoldenTest, RrBitIdenticalToLegacyRoundRobin) {
  struct Golden {
    uint64_t seed;
    GoldenRun want;
  };
  const Golden kGolden[] = {
      {11, {151, 0, 0, {69, 69, 13}, 19801216755, 4745755052427053333ull}},
      {23, {175, 1, 0, {78, 78, 20}, 20346674678, 17529298780218993052ull}},
      {47, {144, 0, 0, {67, 66, 11}, 20202387117, 5782540372182930604ull}},
  };
  for (const Golden& golden : kGolden) {
    GoldenRun got = RunRrGolden(golden.seed);
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    EXPECT_EQ(got.completed, golden.want.completed);
    EXPECT_EQ(got.errored, golden.want.errored);
    EXPECT_EQ(got.rejected, golden.want.rejected);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(got.je_requests[i], golden.want.je_requests[i]);
    }
    EXPECT_EQ(got.end_time, golden.want.end_time);
    EXPECT_EQ(got.hash, golden.want.hash);
  }
}

// ---------------- policy units ----------------

TEST(RoutePolicyTest, FactoryRejectsUnknownPolicy) {
  serving::RouteConfig config;
  config.policy = "bogus";
  auto policy = serving::MakeRoutePolicy(config);
  EXPECT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
}

TEST(RoutePolicyTest, P2cSameSeedSamePickSequence) {
  serving::RouteConfig config;
  config.policy = "p2c";
  config.seed = 7;
  auto a = serving::MakeRoutePolicy(config);
  auto b = serving::MakeRoutePolicy(config);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<serving::JeSnapshot> candidates = {{0, 1, 4}, {1, 1, 4}, {2, 1, 4}, {3, 1, 4}};
  serving::RouteContext ctx{candidates, 4, 1, 16, 4};
  for (int round = 0; round < 256; ++round) {
    serving::RouteDecision da = (*a)->Pick(ctx);
    serving::RouteDecision db = (*b)->Pick(ctx);
    EXPECT_FALSE(da.shed);
    EXPECT_EQ(da.choice, db.choice);
    EXPECT_LT(da.choice, candidates.size());
  }
}

TEST(RoutePolicyTest, P2cTieBreaksToLowerReplicaIndexAndLoadWins) {
  serving::RouteConfig config;
  config.policy = "p2c";
  config.seed = 99;
  auto policy = serving::MakeRoutePolicy(config);
  ASSERT_TRUE(policy.ok());
  // Two equally-loaded candidates: the tie must always fall to the lower
  // replica index no matter where the sampling stream is.
  std::vector<serving::JeSnapshot> tied = {{0, 1, 5}, {1, 1, 5}};
  serving::RouteContext tied_ctx{tied, 2, 1, 10, 2};
  for (int round = 0; round < 64; ++round) {
    EXPECT_EQ((*policy)->Pick(tied_ctx).choice, 0u);
  }
  // Unequal load: the less-loaded replica always wins a 2-way draw.
  std::vector<serving::JeSnapshot> skewed = {{0, 1, 9}, {1, 1, 2}};
  serving::RouteContext skewed_ctx{skewed, 2, 1, 11, 2};
  for (int round = 0; round < 64; ++round) {
    EXPECT_EQ((*policy)->Pick(skewed_ctx).choice, 1u);
  }
}

TEST(RoutePolicyTest, PickLeastLoadedNormalizesByWeightAndBreaksTiesDeterministically) {
  // 1 outstanding on 1 slot vs 1 outstanding on 2 slots: the wider replica is
  // less loaded.
  EXPECT_EQ(serving::PickLeastLoaded({{0, 1, 1}, {1, 2, 1}}), 1u);
  // Equal load ratio (2/2 == 1/1): higher weight wins.
  EXPECT_EQ(serving::PickLeastLoaded({{0, 1, 1}, {1, 2, 2}}), 1u);
  // Fully tied: the first (lowest-index) candidate wins.
  EXPECT_EQ(serving::PickLeastLoaded({{0, 2, 3}, {1, 2, 3}}), 0u);
}

// ---------------- outlier ejection state machine ----------------

TEST(OutlierMonitorTest, EjectsAfterConsecutiveErrorsAndReadmitsViaHalfOpenProbe) {
  serving::OutlierMonitor monitor(3, SToNs(5.0), SToNs(20.0));
  TimeNs t = SToNs(100.0);
  EXPECT_TRUE(monitor.Eligible(t));
  EXPECT_FALSE(monitor.OnError(t));
  monitor.OnSuccess();  // a success resets the streak
  EXPECT_EQ(monitor.consecutive_errors(), 0);
  EXPECT_FALSE(monitor.OnError(t));
  EXPECT_FALSE(monitor.OnError(t));
  EXPECT_TRUE(monitor.OnError(t));  // third consecutive error: ejected
  EXPECT_EQ(monitor.state(), serving::OutlierMonitor::State::kEjected);
  EXPECT_EQ(monitor.ejected_until(), t + SToNs(5.0));
  EXPECT_FALSE(monitor.Eligible(t + SToNs(5.0) - 1));

  TimeNs probe_time = t + SToNs(5.0);
  EXPECT_TRUE(monitor.Eligible(probe_time));
  monitor.OnDispatch(probe_time);  // claims the single half-open probe slot
  EXPECT_EQ(monitor.state(), serving::OutlierMonitor::State::kHalfOpen);
  EXPECT_FALSE(monitor.Eligible(probe_time));  // one probe at a time
  monitor.OnSuccess();
  EXPECT_EQ(monitor.state(), serving::OutlierMonitor::State::kHealthy);
  EXPECT_TRUE(monitor.Eligible(probe_time));
}

TEST(OutlierMonitorTest, HalfOpenFailureDoublesBackoffUpToCap) {
  serving::OutlierMonitor monitor(1, SToNs(5.0), SToNs(20.0));
  EXPECT_TRUE(monitor.OnError(0));  // ejection #1: 5s backoff
  EXPECT_EQ(monitor.ejected_until(), SToNs(5.0));
  monitor.OnDispatch(SToNs(5.0));
  EXPECT_TRUE(monitor.OnError(SToNs(6.0)));  // #2: 10s
  EXPECT_EQ(monitor.ejected_until(), SToNs(16.0));
  monitor.OnDispatch(SToNs(16.0));
  EXPECT_TRUE(monitor.OnError(SToNs(17.0)));  // #3: 20s (at the cap)
  EXPECT_EQ(monitor.ejected_until(), SToNs(37.0));
  monitor.OnDispatch(SToNs(37.0));
  EXPECT_TRUE(monitor.OnError(SToNs(38.0)));  // #4: still 20s, capped
  EXPECT_EQ(monitor.ejected_until(), SToNs(58.0));
  EXPECT_EQ(monitor.ejections(), 4);
}

TEST(OutlierMonitorTest, DisabledMonitorNeverEjects) {
  serving::OutlierMonitor monitor(0, SToNs(5.0), SToNs(20.0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(monitor.OnError(0));
  }
  EXPECT_TRUE(monitor.Eligible(0));
  EXPECT_EQ(monitor.state(), serving::OutlierMonitor::State::kHealthy);
}

// ---------------- retry budget ----------------

TEST(RetryBudgetTest, FloorBoundsSpendingAndRatioGrowsTheCap) {
  serving::RetryBudget budget(0.5, 2);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // floor exhausted, no requests seen yet
  EXPECT_EQ(budget.spent(), 2);
  EXPECT_EQ(budget.denied(), 1);
  for (int i = 0; i < 4; ++i) {
    budget.OnRequest();
  }
  // cap = 2 + 0.5 * 4 = 4: exactly two more tokens.
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.spent(), 4);
  EXPECT_EQ(budget.denied(), 2);
}

TEST(LatencyWindowTest, ExactPercentileOverRetainedWindow) {
  serving::LatencyWindow window;
  EXPECT_EQ(window.Percentile(0.95), 0);  // empty
  for (int i = 1; i <= 100; ++i) {
    window.Add(MsToNs(static_cast<double>(i)));
  }
  EXPECT_EQ(window.Percentile(0.95), MsToNs(96.0));
  EXPECT_EQ(window.Percentile(1.0), MsToNs(100.0));
}

// ---------------- hedging ----------------
//
// One slow replica and one fast one: the hedge fires after the floor delay,
// the fast duplicate finishes first, and the slow primary is cancelled across
// its TE — the engine reclaims the sequence and no second completion lands.

TEST(HedgingTest, HedgeWinsOverSlowPrimaryAndLoserIsCancelled) {
  sim::Simulator sim;
  hw::ClusterConfig cc;
  cc.num_machines = 2;
  hw::Cluster cluster(&sim, cc);
  distflow::TransferEngine transfer(&sim, &cluster, distflow::DistFlowConfig{});
  serving::ClusterManager manager(&sim, &cluster, &transfer);

  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  std::vector<std::unique_ptr<serving::JobExecutor>> jes;
  std::vector<serving::TaskExecutor*> tes;
  for (int i = 0; i < 2; ++i) {
    jes.push_back(std::make_unique<serving::JobExecutor>(
        &sim, je_config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor()));
    auto te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated));
    ASSERT_TRUE(te.ok()) << te.status().ToString();
    jes.back()->AddColocatedTe(*te);
    tes.push_back(*te);
  }

  serving::RouteConfig route;
  route.policy = "rr";
  route.hedge_floor = MsToNs(50.0);
  serving::Frontend frontend(&sim, route);
  for (auto& je : jes) {
    frontend.RegisterServingJe("tiny-1b", je.get());
  }

  // TE 0 — the rr primary's only TE — runs 20x slower from t=1s on.
  faults::FaultInjector injector(&sim, &manager, /*seed=*/1);
  auto plan = faults::FaultInjector::ParseSchedule("slow@1:20x60#0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  injector.ScheduleAll(*plan);

  int completions = 0;
  int errors = 0;
  sim.ScheduleAt(SToNs(2.0), [&] {
    serving::ChatRequest request;
    request.model = "tiny-1b";
    request.spec.id = 1;
    request.spec.decode_len = 64;
    std::vector<TokenId> tokens;
    for (int i = 0; i < 512; ++i) {
      tokens.push_back(700 + static_cast<TokenId>(i % 800));
    }
    request.spec.prompt = std::move(tokens);
    serving::ResponseHandler handler;
    handler.on_complete = [&completions](const flowserve::Sequence&) { ++completions; };
    handler.on_error = [&errors](const Status&) { ++errors; };
    Status status = frontend.ChatCompletion(std::move(request), std::move(handler));
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  sim.Run();

  const serving::FrontendStats& stats = frontend.stats();
  EXPECT_EQ(completions, 1);  // exactly one termination despite two branches
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(stats.hedges_launched, 1);
  EXPECT_EQ(stats.hedge_wins, 1);     // the duplicate finished first
  EXPECT_EQ(stats.hedge_cancels, 1);  // and the slow primary branch was cancelled
  EXPECT_EQ(jes[0]->stats().cancelled, 1);
  EXPECT_EQ(jes[1]->stats().requests, 1);
}

}  // namespace
}  // namespace deepserve
