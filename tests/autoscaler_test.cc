// Autoscaler tests: the pluggable ScalePolicy layer (unit-driven with
// synthetic ScaleSignals), the 3-seed reactive golden parity pin (the
// reactive policy with draining scale-down, pinned bit-for-bit), and the
// graceful-drain mechanism properties: drains lose nothing, crashes racing a
// drain abort it cleanly, and drain timeouts force-kill into the re-dispatch
// path.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/time_units.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "model/model_spec.h"
#include "serving/autoscaler.h"
#include "serving/cluster_manager.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

// ---------------- ScalePolicy units ----------------

serving::ScaleSignals Sig(int live, int64_t queue, int pending = 0) {
  serving::ScaleSignals s;
  s.tick_interval = MsToNs(500);
  s.live_tes = live;
  s.total_queue_depth = queue;
  s.pending_scale_ups = pending;
  return s;
}

TEST(ScalePolicyFactoryTest, RejectsUnknownPolicy) {
  serving::AutoscalerConfig config;
  config.policy = "psychic";
  auto policy = serving::MakeScalePolicy(config);
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScalePolicyFactoryTest, MakesAllThree) {
  for (const char* name : {"reactive", "predictive", "slo"}) {
    serving::AutoscalerConfig config;
    config.policy = name;
    auto policy = serving::MakeScalePolicy(config);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(policy.value()->name(), name);
  }
}

// The historical bug the policy avoids: floor(total/live) under-reports the
// average queue depth, so `floor(avg) <= D` holds for any total < (D+1)*live
// and would shed capacity. The exact comparison (total <= D*live) holds it.
TEST(ReactivePolicyTest, ExactAverageHoldsWhereFloorWouldShed) {
  serving::AutoscalerConfig config;
  config.policy = "reactive";
  config.scale_up_queue_depth = 4;
  config.scale_down_queue_depth = 1;
  config.min_tes = 1;
  config.max_tes = 8;
  auto exact = serving::MakeScalePolicy(config).value();

  // live=4, total=7: true average 1.75 > 1, though floor(7/4) = 1 <= 1.
  EXPECT_EQ(exact->Tick(Sig(4, 7)).scale_down, 0);
}

TEST(ReactivePolicyTest, SingleScaleUpInFlightCap) {
  serving::AutoscalerConfig config;
  config.policy = "reactive";
  config.scale_up_queue_depth = 4;
  config.max_tes = 8;
  auto policy = serving::MakeScalePolicy(config).value();
  EXPECT_EQ(policy->Tick(Sig(2, 100)).scale_up, 1);
  EXPECT_EQ(policy->Tick(Sig(2, 100, /*pending=*/1)).scale_up, 0);
}

TEST(ReactivePolicyTest, RespectsMinAndMax) {
  serving::AutoscalerConfig config;
  config.policy = "reactive";
  config.scale_up_queue_depth = 4;
  config.scale_down_queue_depth = 1;
  config.min_tes = 2;
  config.max_tes = 3;
  auto policy = serving::MakeScalePolicy(config).value();
  EXPECT_EQ(policy->Tick(Sig(3, 100)).scale_up, 0) << "at max_tes";
  EXPECT_EQ(policy->Tick(Sig(2, 0)).scale_down, 0) << "at min_tes";
}

// Drives the predictive policy through a linear arrival-rate ramp with EMPTY
// queues: capacity must be requested from the forecast alone, before any
// backpressure a reactive policy could see.
TEST(PredictivePolicyTest, ScalesAheadOfRampWithEmptyQueues) {
  serving::AutoscalerConfig config;
  config.policy = "predictive";
  config.te_capacity_rps = 1.0;
  config.min_tes = 1;
  config.max_tes = 8;
  auto predictive = serving::MakeScalePolicy(config).value();
  config.policy = "reactive";
  auto reactive = serving::MakeScalePolicy(config).value();

  const DurationNs tick = MsToNs(500);
  const double dt = NsToS(tick);
  int64_t predictive_ups = 0;
  int64_t reactive_ups = 0;
  double admitted = 0.0;
  int live = 1;
  for (int k = 0; k < 40; ++k) {
    double rate = 0.4 * static_cast<double>(k);  // 0 -> 8 rps over 20 s
    admitted += rate * dt;
    serving::ScaleSignals s = Sig(live, /*queue=*/0);
    s.now = tick * (k + 1);
    s.admitted_requests = static_cast<int64_t>(admitted);
    s.scale_up_lead = SToNs(3.0);
    serving::ScaleDecision d = predictive->Tick(s);
    predictive_ups += d.scale_up;
    live += d.scale_up;  // pretend scale-ups land instantly
    reactive_ups += reactive->Tick(s).scale_up;
  }
  EXPECT_GT(predictive_ups, 0) << "forecast never requested capacity";
  EXPECT_EQ(reactive_ups, 0) << "queues were empty; reactive had no trigger";
  EXPECT_GT(live, 2);
}

TEST(PredictivePolicyTest, ForecastsAreScoredOnceTargetTimeArrives) {
  serving::AutoscalerConfig config;
  config.policy = "predictive";
  auto policy = serving::MakeScalePolicy(config).value();
  const DurationNs tick = MsToNs(500);
  bool scored = false;
  for (int k = 0; k < 20; ++k) {
    serving::ScaleSignals s = Sig(1, 0);
    s.now = tick * (k + 1);
    s.admitted_requests = k;  // steady 2 rps
    s.scale_up_lead = SToNs(2.0);
    serving::ScaleDecision d = policy->Tick(s);
    if (d.forecast_abs_err >= 0.0) {
      scored = true;
      EXPECT_LT(d.forecast_abs_err, 4.0) << "steady rate, forecast way off";
    }
  }
  EXPECT_TRUE(scored) << "no forecast was ever scored against reality";
}

// After the load vanishes, the down-streak arms once and stays armed: one TE
// retired per tick while the surplus persists (not one per streak window).
TEST(PredictivePolicyTest, ArmedDownStreakRetiresOneTePerTick) {
  serving::AutoscalerConfig config;
  config.policy = "predictive";
  config.te_capacity_rps = 1.0;
  config.down_stable_ticks = 3;
  config.min_tes = 1;
  config.max_tes = 8;
  auto policy = serving::MakeScalePolicy(config).value();
  const DurationNs tick = MsToNs(500);
  int live = 4;
  int tick_index = 0;
  auto advance = [&](double rate_rps, int64_t queue) {
    static double admitted = 0.0;
    admitted += rate_rps * NsToS(tick);
    serving::ScaleSignals s = Sig(live, queue);
    s.now = tick * (++tick_index);
    s.admitted_requests = static_cast<int64_t>(admitted);
    s.scale_up_lead = SToNs(1.0);
    return policy->Tick(s);
  };
  // Warm up the EWMA at saturation so live=4 is justified, then go quiet.
  for (int k = 0; k < 10; ++k) {
    advance(4.0, /*queue=*/8);
  }
  std::vector<int> downs;
  for (int k = 0; k < 8; ++k) {
    serving::ScaleDecision d = advance(0.0, /*queue=*/0);
    downs.push_back(d.scale_down);
    live -= d.scale_down;
  }
  // First down_stable_ticks-1 ticks build the streak, then one TE per tick
  // until min_tes.
  int total_downs = 0;
  for (int d : downs) {
    total_downs += d;
  }
  EXPECT_EQ(total_downs, 3) << "expected 4 -> 1 retirement";
  EXPECT_EQ(live, 1);
  // The retirements are consecutive once armed.
  EXPECT_EQ(downs.back(), 0) << "kept shedding below min_tes";
}

TEST(SloPolicyTest, ScalesOnViolationRateNotQueueDepth) {
  serving::AutoscalerConfig config;
  config.policy = "slo";
  config.down_stable_ticks = 2;
  config.scale_down_queue_depth = 4;
  config.min_tes = 1;
  config.max_tes = 8;
  auto policy = serving::MakeScalePolicy(config).value();
  const DurationNs tick = MsToNs(500);

  // Baseline tick.
  serving::ScaleSignals s = Sig(2, 0);
  s.now = tick;
  policy->Tick(s);

  // 5 violations against 5 completions: 50% violation rate -> scale up.
  s = Sig(2, 0);
  s.now = tick * 2;
  s.completed_requests = 5;
  s.ttft_violations = 3;
  s.tbt_violations = 1;
  s.deadline_misses = 1;
  EXPECT_EQ(policy->Tick(s).scale_up, 1);

  // Quiet ticks: no new violations -> scale down after down_stable_ticks.
  int downs = 0;
  for (int k = 3; k < 6; ++k) {
    s = Sig(2, 0);
    s.now = tick * k;
    s.completed_requests = 5 + k;
    s.ttft_violations = 3;
    s.tbt_violations = 1;
    s.deadline_misses = 1;
    downs += policy->Tick(s).scale_down;
  }
  EXPECT_GE(downs, 1);
}

// ---------------- Reactive golden parity ----------------
//
// Replays a fixed reactive-autoscaler harness with the exact-average
// ReactivePolicy and draining scale-down. Its down-trigger
// (scale_down_queue_depth = 0) fires only when every TE is idle, so each
// victim drains nothing. Every field below must reproduce, including the
// FNV-1a hash over (id, first_token_time, finish_time) of each completion.

struct GoldenRun {
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  int64_t completed = 0;
  int64_t errored = 0;
  int final_ready = 0;
  TimeNs end_time = 0;
  uint64_t timeline_hash = 0;
};

GoldenRun RunReactiveGolden(uint64_t seed) {
  sim::Simulator sim;
  hw::ClusterConfig cluster_config;
  cluster_config.num_machines = 2;
  hw::Cluster cluster(&sim, cluster_config);
  distflow::TransferEngine transfer(&sim, &cluster, {});
  serving::ClusterManager manager(&sim, &cluster, &transfer);
  manager.ReservePrewarmedPods(8);
  manager.ReservePrewarmedTes(8);
  for (int m = 0; m < cluster.num_machines(); ++m) {
    manager.PreloadModelToDram(m, model::ModelSpec::Tiny1B());
  }
  sim.Run();

  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Tiny1B();
  engine.npu_spec = cluster_config.npu_spec;
  engine.parallelism = {1, 1, 1};
  engine.role = flowserve::EngineRole::kColocated;
  auto first = manager.CreateReadyTe(engine);
  je.AddColocatedTe(first.value());

  serving::AutoscalerConfig as;
  as.check_interval = MsToNs(500);
  as.scale_up_queue_depth = 4;
  as.scale_down_queue_depth = 0;
  as.min_tes = 1;
  as.max_tes = 4;
  as.policy = "reactive";
  serving::ScaleRequest request;
  request.engine = engine;
  manager.StartAutoscaler(&je, as, request);

  auto trace_config = workload::TraceGenerator::InternalTrace(12.0, 30.0, seed);
  trace_config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  trace_config.decode = workload::LengthDistribution{64, 0.4, 8, 256};
  auto trace = workload::TraceGenerator(trace_config).Generate();
  const TimeNs t0 = sim.Now();
  for (auto& spec : trace) {
    spec.arrival += t0;
  }

  GoldenRun out;
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const auto& spec : trace) {
    sim.ScheduleAt(spec.arrival, [&, spec] {
      je.HandleRequest(spec, {nullptr,
                              [&, id = spec.id](const flowserve::Sequence& seq) {
                                ++out.completed;
                                mix(id);
                                mix(static_cast<uint64_t>(seq.first_token_time));
                                mix(static_cast<uint64_t>(seq.finish_time));
                              },
                              [&](const Status&) { ++out.errored; }});
    });
  }
  sim.RunUntil(t0 + SToNs(180));
  manager.StopAutoscaler();
  sim.Run();

  for (const auto& te : manager.tes()) {
    if (te->ready()) {
      ++out.final_ready;
    }
  }
  out.scale_ups = manager.stats().scale_ups;
  out.scale_downs = manager.stats().scale_downs;
  out.end_time = sim.Now();
  out.timeline_hash = hash;
  return out;
}

TEST(ReactiveGoldenParityTest, BitIdenticalToPreRefactorAutoscaler) {
  struct GoldenRow {
    uint64_t seed;
    int64_t scale_ups;
    int64_t scale_downs;
    int64_t completed;
    int64_t errored;
    int final_ready;
    TimeNs end_time;
    uint64_t timeline_hash;
  };
  const GoldenRow kGolden[] = {
      {11ull, 3, 3, 373, 0, 1, 180560063275, 0xd32e9d71f92081ebull},
      {23ull, 4, 4, 396, 0, 1, 180560063275, 0x6d7a5ab5c0739cacull},
      {47ull, 3, 3, 347, 0, 1, 180560063275, 0x77e0392219d85b05ull},
  };
  for (const GoldenRow& row : kGolden) {
    GoldenRun run = RunReactiveGolden(row.seed);
    EXPECT_EQ(run.scale_ups, row.scale_ups) << "seed " << row.seed;
    EXPECT_EQ(run.scale_downs, row.scale_downs) << "seed " << row.seed;
    EXPECT_EQ(run.completed, row.completed) << "seed " << row.seed;
    EXPECT_EQ(run.errored, row.errored) << "seed " << row.seed;
    EXPECT_EQ(run.final_ready, row.final_ready) << "seed " << row.seed;
    EXPECT_EQ(run.end_time, row.end_time) << "seed " << row.seed;
    EXPECT_EQ(run.timeline_hash, row.timeline_hash) << "seed " << row.seed;
  }
}

// ---------------- Graceful-drain mechanism ----------------

workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < prefill; ++i) {
    tokens.push_back(600 + static_cast<TokenId>((id * 131 + i) % 8000));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

class DrainTest : public ::testing::Test {
 protected:
  DrainTest()
      : cluster_(&sim_, MakeClusterConfig()),
        transfer_(&sim_, &cluster_, {}),
        manager_(&sim_, &cluster_, &transfer_),
        je_(&sim_, MakeJeConfig(), serving::PdHeatmap::Default(),
            serving::MakeOraclePredictor()) {
    engine_.model = model::ModelSpec::Tiny1B();
    engine_.parallelism = {1, 1, 1};
    engine_.role = flowserve::EngineRole::kColocated;
    for (int i = 0; i < 2; ++i) {
      tes_.push_back(manager_.CreateReadyTe(engine_).value());
      je_.AddColocatedTe(tes_.back());
    }
    manager_.AddFailureHandler([this](serving::TeId id) { je_.OnTeFailure(id); });
  }

  static hw::ClusterConfig MakeClusterConfig() {
    hw::ClusterConfig config;
    config.num_machines = 1;
    return config;
  }

  static serving::JeConfig MakeJeConfig() {
    serving::JeConfig config;
    config.policy = serving::SchedulingPolicy::kLoadOnly;
    return config;
  }

  // An autoscaler whose reactive down-trigger always holds: it sheds one TE
  // per tick toward min_tes as soon as it starts ticking.
  serving::AutoscalerConfig ShedConfig() {
    serving::AutoscalerConfig config;
    config.policy = "reactive";
    config.check_interval = MsToNs(50);
    config.scale_up_queue_depth = 1 << 20;
    config.scale_down_queue_depth = 1 << 20;
    config.min_tes = 1;
    config.max_tes = 2;
    return config;
  }

  void SubmitAll(int count) {
    for (int i = 0; i < count; ++i) {
      je_.HandleRequest(MakeRequest(i + 1, 512, 128),
                        {nullptr,
                         [this](const flowserve::Sequence&) { ++completed_; },
                         [this](const Status&) { ++errored_; }});
    }
  }

  sim::Simulator sim_;
  hw::Cluster cluster_;
  distflow::TransferEngine transfer_;
  serving::ClusterManager manager_;
  serving::JobExecutor je_;
  flowserve::EngineConfig engine_;
  std::vector<serving::TaskExecutor*> tes_;
  int64_t completed_ = 0;
  int64_t errored_ = 0;
};

TEST_F(DrainTest, GracefulDrainLosesNoInflightWork) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, ShedConfig(), request);
  // Let the work land and the first tick pick a (busy) victim, then run out.
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests) << "drain dropped in-flight work";
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_EQ(stats.drains_started, 1);
  EXPECT_EQ(stats.drains_completed, 1);
  EXPECT_EQ(stats.drain_timeouts, 0);
  EXPECT_GT(stats.drained_seqs, 0) << "victim was idle; drain proved nothing";
  EXPECT_GT(stats.drain_ns_total, 0);
  // Exactly one TE retired, one survivor.
  int ready = 0;
  int stopped = 0;
  for (const auto& te : manager_.tes()) {
    ready += te->ready() ? 1 : 0;
    stopped += te->state() == serving::TeState::kStopped ? 1 : 0;
  }
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(stopped, 1);
}

TEST_F(DrainTest, ScaleDownDrainsTheLeastLoadedTe) {
  SubmitAll(1);
  serving::TaskExecutor* busy = tes_[0]->queue_depth() > 0 ? tes_[0] : tes_[1];
  serving::TaskExecutor* idle = busy == tes_[0] ? tes_[1] : tes_[0];
  ASSERT_EQ(busy->queue_depth(), 1);
  ASSERT_EQ(idle->queue_depth(), 0);
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, ShedConfig(), request);
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, 1);
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_EQ(stats.drains_started, 1);
  EXPECT_EQ(stats.drains_completed, 1);
  EXPECT_EQ(stats.drained_seqs, 0) << "the loaded TE was drained";
  EXPECT_EQ(idle->state(), serving::TeState::kStopped);
  EXPECT_TRUE(busy->ready());
}

TEST_F(DrainTest, CrashRacingDrainAbortsItAndConservesRequests) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::AutoscalerConfig config = ShedConfig();
  config.drain_timeout = SToNs(5);  // bound how long the abort takes to surface
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, config, request);
  // First tick at 50 ms starts the drain; crash the draining TE mid-drain.
  sim_.ScheduleAt(MsToNs(80), [this] {
    for (const auto& te : manager_.tes()) {
      if (te->draining()) {
        ASSERT_TRUE(manager_.KillTe(te->id()).ok());
        return;
      }
    }
    FAIL() << "no TE was draining at crash time";
  });
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests) << "crash-racing-drain lost requests";
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_GE(stats.drains_started, 1);
  EXPECT_GE(stats.drains_aborted, 1) << "abort was never detected";
  EXPECT_EQ(stats.drained_seqs, 0);
}

TEST_F(DrainTest, DrainTimeoutForceKillsIntoRedispatch) {
  constexpr int kRequests = 8;
  SubmitAll(kRequests);
  serving::AutoscalerConfig config = ShedConfig();
  // Far too short for 512/128-token jobs: the drain must time out.
  config.drain_timeout = MsToNs(1);
  serving::ScaleRequest request;
  request.engine = engine_;
  manager_.StartAutoscaler(&je_, config, request);
  sim_.RunUntil(SToNs(60));
  manager_.StopAutoscaler();
  sim_.Run();

  EXPECT_EQ(completed_, kRequests) << "force-killed stragglers were not re-dispatched";
  EXPECT_EQ(errored_, 0);
  const serving::AutoscalerStats& stats = manager_.autoscaler()->stats();
  EXPECT_GE(stats.drain_timeouts, 1);
  EXPECT_EQ(stats.drains_completed, 0);
}

}  // namespace
}  // namespace deepserve
