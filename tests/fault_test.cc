// Cancellation and fault-tolerance tests: request cancel paths in the
// engine, TE failure injection, and JE re-dispatch of lost jobs.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "distflow/distflow.h"
#include "faults/fault_injector.h"
#include "flowserve/engine.h"
#include "hw/cluster.h"
#include "hw/link.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"
#include "job_ledger.h"

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

// ---------------- Engine cancellation ----------------

class CancelTest : public ::testing::Test {
 protected:
  CancelTest() : engine_(&sim_, SmallEngine(flowserve::EngineRole::kColocated)) {}
  sim::Simulator sim_;
  flowserve::Engine engine_;
};

TEST_F(CancelTest, CancelUnknownRequestFails) {
  EXPECT_EQ(engine_.Cancel(42).code(), StatusCode::kNotFound);
}

TEST_F(CancelTest, CancelQueuedRequestFiresNoCallbacks) {
  bool any_callback = false;
  engine_.Submit(MakeRequest(1, 2048, 128),
                 {[&](const flowserve::Sequence&) { any_callback = true; },
                  [&](const flowserve::Sequence&) { any_callback = true; }});
  // Cancel while still in the tokenizer (no events have run).
  EXPECT_TRUE(engine_.Cancel(1).ok());
  sim_.Run();
  EXPECT_FALSE(any_callback);
  EXPECT_TRUE(engine_.idle());
  EXPECT_EQ(engine_.stats().cancelled, 1);
}

TEST_F(CancelTest, CancelMidPrefillReleasesKv) {
  engine_.Submit(MakeRequest(1, 4096, 128), {});
  sim_.RunUntil(MsToNs(120));  // some chunks done, prefill ongoing
  EXPECT_GT(engine_.rtc().npu_blocks_used(), 0);
  ASSERT_TRUE(engine_.Cancel(1).ok());
  sim_.Run();
  EXPECT_TRUE(engine_.idle());
  // No cached entry was preserved for the cancelled request.
  EXPECT_EQ(engine_.rtc().npu_blocks_used(), 0);
}

TEST_F(CancelTest, CancelMidDecodeLeavesOthersRunning) {
  int completed = 0;
  engine_.Submit(MakeRequest(1, 512, 512),
                 {nullptr, [&](const flowserve::Sequence&) { ++completed; }});
  engine_.Submit(MakeRequest(2, 512, 64, 30000),
                 {nullptr, [&](const flowserve::Sequence&) { ++completed; }});
  sim_.RunUntil(SToNs(1.0));  // both decoding
  ASSERT_TRUE(engine_.Cancel(1).ok());
  sim_.Run();
  EXPECT_EQ(completed, 1);  // only request 2 finished
  EXPECT_TRUE(engine_.idle());
}

TEST_F(CancelTest, CancelDuringPopulateWait) {
  // Build a cached entry, demote it, then cancel a request mid-populate.
  auto first = MakeRequest(1, 2048, 2);
  bool done = false;
  engine_.Submit(first, {nullptr, [&](const flowserve::Sequence&) { done = true; }});
  sim_.Run();
  ASSERT_TRUE(done);
  auto& rtc = engine_.rtc();
  auto info = rtc.MatchByPrefixToken(
      first.prompt, rtc::TokensToBlockKeys(first.prompt, rtc.config().block_size));
  ASSERT_TRUE(info.hit());
  rtc.Acquire(info.blocks);
  rtc.Copy(info.blocks, rtc::Tier::kDram, nullptr);
  sim_.Run();
  rtc.Free(info.blocks);
  ASSERT_TRUE(rtc.EnsureNpuFree(rtc.config().pool.npu_capacity).ok());  // force demote

  // Slow transfers so the populate window is wide.
  engine_.SetRtcTransferFn([this](rtc::Tier, rtc::Tier, Bytes, std::function<void()> cb) {
    sim_.ScheduleAfter(SToNs(5), std::move(cb));
  });
  auto second = MakeRequest(2, 2048, 4);
  bool second_done = false;
  engine_.Submit(second, {nullptr, [&](const flowserve::Sequence&) { second_done = true; }});
  sim_.RunUntil(sim_.Now() + MsToNs(100));  // inside the populate
  ASSERT_TRUE(engine_.Cancel(2).ok());
  sim_.Run();
  EXPECT_FALSE(second_done);
  EXPECT_TRUE(engine_.idle());
}

TEST_F(CancelTest, AbortDropsEverything) {
  int callbacks = 0;
  for (int i = 0; i < 6; ++i) {
    engine_.Submit(MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 256,
                               static_cast<TokenId>(100 + 999 * i)),
                   {nullptr, [&](const flowserve::Sequence&) { ++callbacks; }});
  }
  sim_.RunUntil(MsToNs(300));
  size_t dropped = engine_.Abort();
  EXPECT_EQ(dropped, 6u);
  sim_.Run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_TRUE(engine_.idle());
  EXPECT_EQ(engine_.rtc().npu_blocks_used(), 0);
  EXPECT_EQ(engine_.stats().aborted, 6);
}

TEST_F(CancelTest, EngineUsableAfterAbort) {
  engine_.Submit(MakeRequest(1, 1024, 128), {});
  sim_.RunUntil(MsToNs(100));
  engine_.Abort();
  bool done = false;
  engine_.Submit(MakeRequest(2, 512, 16, 40000),
                 {nullptr, [&](const flowserve::Sequence&) { done = true; }});
  sim_.Run();
  EXPECT_TRUE(done);
}

// ---------------- Platform fault tolerance ----------------

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest() {
    hw::ClusterConfig cc;
    cc.num_machines = 4;
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cc);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    manager_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(),
                                                         transfer_.get());
    serving::JeConfig config;
    config.policy = serving::SchedulingPolicy::kLoadOnly;
    je_ = std::make_unique<serving::JobExecutor>(&sim_, config, serving::PdHeatmap::Default(),
                                                 serving::MakeOraclePredictor());
    manager_->AddFailureHandler([this](serving::TeId id) { je_->OnTeFailure(id); });
  }

  serving::TaskExecutor* AddTe(flowserve::EngineRole role) {
    auto te = manager_->CreateReadyTe(SmallEngine(role)).value();
    switch (role) {
      case flowserve::EngineRole::kColocated:
        je_->AddColocatedTe(te);
        break;
      case flowserve::EngineRole::kPrefillOnly:
        je_->AddPrefillTe(te);
        break;
      case flowserve::EngineRole::kDecodeOnly:
        je_->AddDecodeTe(te);
        break;
    }
    endpoints_.push_back(te->id());
    return te;
  }

  void Link() {
    ASSERT_TRUE(transfer_->LinkCluster(endpoints_, nullptr).ok());
    sim_.Run();
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<serving::ClusterManager> manager_;
  std::unique_ptr<serving::JobExecutor> je_;
  std::vector<distflow::EndpointId> endpoints_;
};

TEST_F(FaultToleranceTest, KillUnknownTeFails) {
  EXPECT_FALSE(manager_->KillTe(99).ok());
}

TEST_F(FaultToleranceTest, ColocatedTeFailureRedispatchesInflightJobs) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  auto* te2 = AddTe(flowserve::EngineRole::kColocated);
  Link();
  std::set<workload::RequestId> completed;
  for (int i = 0; i < 8; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 1024,
                            static_cast<TokenId>(100 + 777 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(MsToNs(200));  // work in flight on both TEs
  auto dropped = manager_->KillTe(te1->id());
  ASSERT_TRUE(dropped.ok());
  EXPECT_GT(*dropped, 0u);
  sim_.Run();
  // Every request completed despite the crash (retried on te2).
  EXPECT_EQ(completed.size(), 8u);
  EXPECT_GT(je_->stats().retries, 0);
  EXPECT_EQ(je_->stats().failed_tes_handled, 1);
  EXPECT_GT(te2->engine().stats().completed, 0);
  EXPECT_EQ(te1->state(), serving::TeState::kFailed);
}

TEST_F(FaultToleranceTest, DecodeTeFailureRetriesDisaggregatedJobs) {
  AddTe(flowserve::EngineRole::kPrefillOnly);
  auto* decode1 = AddTe(flowserve::EngineRole::kDecodeOnly);
  AddTe(flowserve::EngineRole::kDecodeOnly);
  Link();
  std::set<workload::RequestId> completed;
  for (int i = 0; i < 6; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 2048, 2048,
                            static_cast<TokenId>(100 + 555 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(SToNs(1));  // some decodes running on both decode TEs
  ASSERT_TRUE(manager_->KillTe(decode1->id()).ok());
  sim_.Run();
  EXPECT_EQ(completed.size(), 6u);
  EXPECT_GT(je_->stats().retries, 0);
}

TEST_F(FaultToleranceTest, PrefillTeFailureRetriesViaSurvivingPair) {
  auto* prefill1 = AddTe(flowserve::EngineRole::kPrefillOnly);
  AddTe(flowserve::EngineRole::kPrefillOnly);
  AddTe(flowserve::EngineRole::kDecodeOnly);
  Link();
  std::set<workload::RequestId> completed;
  for (int i = 0; i < 6; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 4096, 32,
                            static_cast<TokenId>(100 + 311 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(MsToNs(200));  // prefills in flight
  ASSERT_TRUE(manager_->KillTe(prefill1->id()).ok());
  sim_.Run();
  EXPECT_EQ(completed.size(), 6u);
}

TEST_F(FaultToleranceTest, FailedJobsMarkedInLedger) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  for (int i = 0; i < 4; ++i) {
    je_->HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 256,
                                   static_cast<TokenId>(100 + 131 * i)), {nullptr, nullptr, nullptr});
  }
  sim_.RunUntil(MsToNs(400));
  ASSERT_TRUE(manager_->KillTe(te1->id()).ok());
  sim_.Run();
  int failed = 0;
  int completed = 0;
  for (const auto& job : ReadJobLedger(*je_).jobs) {
    if (job.state == serving::JobState::kFailed) {
      ++failed;
    }
    if (job.state == serving::JobState::kCompleted) {
      ++completed;
    }
  }
  EXPECT_GT(failed, 0);
  // Retries created fresh (completed) jobs for the failed ones.
  EXPECT_EQ(completed, 4 + failed > 4 ? completed : completed);
  EXPECT_GE(completed, 4);
}

TEST_F(FaultToleranceTest, DoubleKillFails) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  ASSERT_TRUE(manager_->KillTe(te1->id()).ok());
  EXPECT_EQ(manager_->KillTe(te1->id()).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FaultToleranceTest, NpusReleasedAfterKill) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  Link();
  ASSERT_TRUE(manager_->KillTe(te1->id()).ok());
  // Freed capacity is reusable immediately.
  EXPECT_TRUE(manager_->CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).ok());
}

// ---------------- Deferred detection (CrashTe) ----------------

TEST_F(FaultToleranceTest, NpuCrashDetectionLandsOnHeartbeatGrid) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  std::set<workload::RequestId> completed;
  for (int i = 0; i < 8; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 1024,
                            static_cast<TokenId>(100 + 777 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(MsToNs(200));
  ASSERT_TRUE(manager_->CrashTe(te1->id(), serving::CrashKind::kNpu).ok());
  // The TE is dead immediately, but the platform has not noticed yet.
  EXPECT_EQ(te1->state(), serving::TeState::kFailed);
  EXPECT_EQ(je_->stats().failed_tes_handled, 0);
  // Default detection: 3 missed 500ms heartbeats from t=200ms lands at
  // 1700ms, quantized up to the 2000ms heartbeat tick.
  sim_.RunUntil(MsToNs(1999));
  EXPECT_EQ(manager_->stats().detections, 0);
  sim_.RunUntil(MsToNs(2001));
  EXPECT_EQ(manager_->stats().detections, 1);
  EXPECT_EQ(je_->stats().failed_tes_handled, 1);
  EXPECT_DOUBLE_EQ(manager_->stats().mean_mttr_ms(), 1800.0);
  sim_.Run();
  EXPECT_EQ(completed.size(), 8u);  // lost work re-dispatched after detection
}

TEST_F(FaultToleranceTest, ShellCrashDetectedFasterThanHeartbeatLapse) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  sim_.RunUntil(MsToNs(200));
  ASSERT_TRUE(manager_->CrashTe(te1->id(), serving::CrashKind::kTeShell).ok());
  sim_.RunUntil(MsToNs(299));
  EXPECT_EQ(manager_->stats().detections, 0);
  sim_.RunUntil(MsToNs(301));  // pod-runtime signal after 100ms
  EXPECT_EQ(manager_->stats().detections, 1);
  EXPECT_DOUBLE_EQ(manager_->stats().mean_mttr_ms(), 100.0);
}

TEST_F(FaultToleranceTest, DetectionLatencyIsConfigurable) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  serving::FaultDetectionConfig detection;
  detection.heartbeat_interval = MsToNs(100);
  detection.missed_heartbeats = 2;
  manager_->SetFaultDetection(detection);
  sim_.RunUntil(MsToNs(50));
  ASSERT_TRUE(manager_->CrashTe(te1->id(), serving::CrashKind::kNpu).ok());
  // 2 x 100ms from t=50ms lands at 250ms, quantized up to 300ms.
  sim_.RunUntil(MsToNs(299));
  EXPECT_EQ(manager_->stats().detections, 0);
  sim_.RunUntil(MsToNs(301));
  EXPECT_EQ(manager_->stats().detections, 1);
}

TEST_F(FaultToleranceTest, CrashAccountsLostKvTokens) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  for (int i = 0; i < 4; ++i) {
    je_->HandleRequest(MakeRequest(static_cast<workload::RequestId>(i + 1), 2048, 1024,
                                   static_cast<TokenId>(100 + 991 * i)),
                       {nullptr, nullptr, nullptr});
  }
  sim_.RunUntil(MsToNs(400));  // KV context built up on both TEs
  ASSERT_TRUE(manager_->CrashTe(te1->id()).ok());
  EXPECT_GT(manager_->stats().lost_requests, 0);
  EXPECT_GT(manager_->stats().lost_kv_tokens, 0);
  sim_.Run();
}

TEST_F(FaultToleranceTest, ReplacementPolicyRestoresCapacityAndRecordsMttr) {
  auto* te1 = AddTe(flowserve::EngineRole::kColocated);
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  serving::TaskExecutor* replacement = nullptr;
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager_->SetReplacementPolicy(request, [&](serving::TaskExecutor* te) {
    replacement = te;
    je_->AddColocatedTe(te);
  });
  std::set<workload::RequestId> completed;
  for (int i = 0; i < 8; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 1024,
                            static_cast<TokenId>(100 + 777 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(MsToNs(200));
  ASSERT_TRUE(manager_->CrashTe(te1->id()).ok());
  sim_.Run();
  EXPECT_EQ(manager_->stats().replacements, 1);
  ASSERT_NE(replacement, nullptr);
  EXPECT_TRUE(replacement->ready());
  // MTTR spans crash -> replacement ready, so it exceeds detection latency.
  EXPECT_GT(manager_->stats().mean_mttr_ms(), 1800.0);
  EXPECT_EQ(completed.size(), 8u);
}

TEST_F(FaultToleranceTest, RetryBudgetExhaustionDeliversAborted) {
  std::vector<serving::TaskExecutor*> tes;
  for (int i = 0; i < 6; ++i) {
    tes.push_back(AddTe(flowserve::EngineRole::kColocated));
  }
  Link();
  int completions = 0;
  int errors = 0;
  Status seen = Status::Ok();
  je_->HandleRequest(MakeRequest(1, 512, 40000),
                     {nullptr, [&](const flowserve::Sequence&) { ++completions; },
                      [&](const Status& e) {
                        ++errors;
                        seen = e;
                      }});
  sim_.RunUntil(MsToNs(50));
  // Keep killing whichever TE holds the request until the retry budget runs
  // out; capacity remains available throughout, so the terminal status is
  // kAborted (budget), not kUnavailable (no capacity).
  auto holder = [&]() -> serving::TaskExecutor* {
    for (auto* te : tes) {
      if (te->ready() && !te->engine().idle()) {
        return te;
      }
    }
    return nullptr;
  };
  for (int round = 0; round < 6; ++round) {
    serving::TaskExecutor* h = holder();
    if (h == nullptr) {
      break;
    }
    ASSERT_TRUE(manager_->KillTe(h->id()).ok());
    sim_.RunUntil(sim_.Now() + MsToNs(50));
  }
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(seen.code(), StatusCode::kAborted);
  EXPECT_EQ(je_->stats().retries, 3);  // the JE's per-request retry cap
  EXPECT_EQ(je_->stats().errors, 1);
}

// ---------------- Fault injector ----------------

TEST_F(FaultToleranceTest, SlowNodeMultiplierAppliesAndRestores) {
  auto* te = AddTe(flowserve::EngineRole::kColocated);
  Link();
  faults::FaultInjector injector(&sim_, manager_.get(), /*seed=*/7);
  faults::FaultEvent event;
  event.time = sim_.Now();
  event.kind = faults::FaultKind::kSlowNode;
  event.target = 0;
  event.factor = 2.0;
  event.duration = SToNs(1);
  injector.Schedule(event);
  sim_.RunUntil(MsToNs(1));
  EXPECT_DOUBLE_EQ(te->engine().step_time_multiplier(), 2.0);
  sim_.RunUntil(SToNs(1.1));
  EXPECT_DOUBLE_EQ(te->engine().step_time_multiplier(), 1.0);
  EXPECT_EQ(injector.stats().slow_nodes, 1);
  EXPECT_EQ(injector.stats().restores, 1);
}

TEST_F(FaultToleranceTest, StragglerStretchesCompletionTime) {
  auto run = [&](double factor) {
    sim::Simulator sim;
    flowserve::Engine engine(&sim, SmallEngine(flowserve::EngineRole::kColocated));
    engine.SetStepTimeMultiplier(factor);
    TimeNs done = 0;
    engine.Submit(MakeRequest(1, 1024, 256),
                  {nullptr, [&](const flowserve::Sequence& seq) { done = seq.finish_time; }});
    sim.Run();
    return done;
  };
  TimeNs base = run(1.0);
  TimeNs slow = run(3.0);
  EXPECT_GT(base, 0);
  EXPECT_GT(slow, 2 * base);  // ~3x modulo rounding
}

TEST_F(FaultToleranceTest, LinkDegradeScalesBandwidthAndRestores) {
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  faults::FaultInjector injector(&sim_, manager_.get(), /*seed=*/7);
  faults::FaultEvent event;
  event.time = sim_.Now();
  event.kind = faults::FaultKind::kLinkDegrade;
  event.target = 0;  // machine 0
  event.factor = 0.25;
  event.duration = SToNs(2);
  injector.Schedule(event);
  sim_.RunUntil(MsToNs(1));
  EXPECT_DOUBLE_EQ(cluster_->hccs_link(0)->bandwidth_scale(), 0.25);
  EXPECT_DOUBLE_EQ(cluster_->roce_link(0)->bandwidth_scale(), 0.25);
  sim_.RunUntil(SToNs(2.1));
  EXPECT_DOUBLE_EQ(cluster_->hccs_link(0)->bandwidth_scale(), 1.0);
  EXPECT_DOUBLE_EQ(cluster_->roce_link(0)->bandwidth_scale(), 1.0);
  EXPECT_EQ(injector.stats().link_degrades, 1);
  EXPECT_EQ(injector.stats().restores, 1);
}

TEST_F(FaultToleranceTest, CrashWithNoLiveTargetIsSkipped) {
  faults::FaultInjector injector(&sim_, manager_.get(), /*seed=*/7);
  faults::FaultEvent event;
  event.time = sim_.Now();
  event.kind = faults::FaultKind::kNpuCrash;
  injector.Schedule(event);
  sim_.Run();
  EXPECT_EQ(injector.stats().injected, 1);
  EXPECT_EQ(injector.stats().skipped, 1);
  EXPECT_EQ(manager_->stats().crashes, 0);
}

TEST_F(FaultToleranceTest, CmCrashEventTakesControlLeaderDown) {
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  faults::FaultInjector injector(&sim_, manager_.get(), /*seed=*/7);
  faults::FaultEvent event;
  event.time = sim_.Now();
  event.kind = faults::FaultKind::kCmCrash;
  injector.Schedule(event);
  event.time = sim_.Now() + SToNs(1);  // second crash: leader already down
  injector.Schedule(event);
  sim_.Run();
  EXPECT_EQ(injector.stats().cm_crashes, 1);
  EXPECT_EQ(injector.stats().skipped, 1);
  EXPECT_EQ(manager_->stats().cm_crashes, 1);
  EXPECT_FALSE(manager_->leader_up());  // degenerate log: nobody takes over
}

TEST_F(FaultToleranceTest, JeCrashEventNeedsARegisteredExecutor) {
  AddTe(flowserve::EngineRole::kColocated);
  Link();
  faults::FaultInjector injector(&sim_, manager_.get(), /*seed=*/7);
  faults::FaultEvent event;
  event.time = sim_.Now();
  event.kind = faults::FaultKind::kJeCrash;
  injector.Schedule(event);  // no JE registered yet: skipped
  sim_.Run();
  EXPECT_EQ(injector.stats().je_crashes, 0);
  EXPECT_EQ(injector.stats().skipped, 1);

  injector.RegisterJobExecutor(je_.get());
  event.time = sim_.Now();
  event.target = 0;
  injector.Schedule(event);
  sim_.Run();
  EXPECT_EQ(injector.stats().je_crashes, 1);
  EXPECT_EQ(je_->stats().je_crashes, 1);
  EXPECT_FALSE(je_->leader_up());
}

// ---------------- Heterogeneous-cluster fault tolerance ----------------

// A Gen1+Gen2 cluster at one TE per machine (tp8): cost-aware placement fills
// the cheap Gen1 machines first, so the third and fourth TEs overflow onto
// Gen2 — giving the fleet one TE per machine across both generations.
class HeteroFaultTest : public ::testing::Test {
 protected:
  HeteroFaultTest() {
    hw::ClusterConfig cc;
    cc.num_machines = 4;
    cc.machine_specs = hw::ParseNpuMix("gen1:2,gen2:2").value();
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cc);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    manager_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(),
                                                         transfer_.get());
    serving::JeConfig config;
    config.policy = serving::SchedulingPolicy::kLoadOnly;
    je_ = std::make_unique<serving::JobExecutor>(&sim_, config, serving::PdHeatmap::Default(),
                                                 serving::MakeOraclePredictor());
    manager_->AddFailureHandler([this](serving::TeId id) { je_->OnTeFailure(id); });
  }

  serving::TaskExecutor* AddColocatedTe() {
    flowserve::EngineConfig config = SmallEngine(flowserve::EngineRole::kColocated);
    config.parallelism = {8, 1, 1};  // one TE per machine
    config.npu_spec_from_placement = true;
    auto te = manager_->CreateReadyTe(config).value();
    je_->AddColocatedTe(te);
    endpoints_.push_back(te->id());
    return te;
  }

  void Link() {
    ASSERT_TRUE(transfer_->LinkCluster(endpoints_, nullptr).ok());
    sim_.Run();
  }

  std::string GenOf(serving::TaskExecutor* te) const {
    return manager_->TeSpec(te->id()).name;
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<serving::ClusterManager> manager_;
  std::unique_ptr<serving::JobExecutor> je_;
  std::vector<distflow::EndpointId> endpoints_;
};

TEST_F(HeteroFaultTest, CrashOfOnlyGen2TeRedispatchesAcrossGenerations) {
  auto* gen1_a = AddColocatedTe();
  auto* gen1_b = AddColocatedTe();
  auto* gen2 = AddColocatedTe();
  Link();
  // Placement preferred the cheap generation, overflowing the third TE.
  ASSERT_EQ(GenOf(gen1_a), hw::NpuSpec::Gen1().name);
  ASSERT_EQ(GenOf(gen1_b), hw::NpuSpec::Gen1().name);
  ASSERT_EQ(GenOf(gen2), hw::NpuSpec::Gen2().name);

  std::set<workload::RequestId> completed;
  for (int i = 0; i < 9; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 1024,
                            static_cast<TokenId>(100 + 777 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(MsToNs(200));  // load spread over all three TEs
  auto dropped = manager_->KillTe(gen2->id());
  ASSERT_TRUE(dropped.ok());
  EXPECT_GT(*dropped, 0u);  // the Gen2 TE really held in-flight work
  sim_.Run();
  // Everything the dead Gen2 TE carried re-dispatched onto the surviving
  // Gen1 TEs — cross-generation recovery, no stranded requests.
  EXPECT_EQ(completed.size(), 9u);
  EXPECT_GT(je_->stats().retries, 0);
  EXPECT_EQ(je_->stats().failed_tes_handled, 1);
  EXPECT_EQ(gen2->state(), serving::TeState::kFailed);
  EXPECT_GT(gen1_a->engine().stats().completed + gen1_b->engine().stats().completed, 0);
}

TEST_F(HeteroFaultTest, CrashesOnBothGenerationsConserveRequests) {
  auto* gen1_a = AddColocatedTe();
  auto* gen1_b = AddColocatedTe();
  auto* gen2_a = AddColocatedTe();
  auto* gen2_b = AddColocatedTe();
  Link();
  ASSERT_EQ(GenOf(gen1_b), hw::NpuSpec::Gen1().name);
  ASSERT_EQ(GenOf(gen2_b), hw::NpuSpec::Gen2().name);

  std::set<workload::RequestId> completed;
  for (int i = 0; i < 12; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 512,
                            static_cast<TokenId>(100 + 311 * i));
    je_->HandleRequest(spec, {nullptr, [&completed, id = spec.id](const flowserve::Sequence&) {
      completed.insert(id);
    }, nullptr});
  }
  sim_.RunUntil(MsToNs(150));
  ASSERT_TRUE(manager_->KillTe(gen1_a->id()).ok());  // a Gen1 victim...
  sim_.RunUntil(MsToNs(350));
  ASSERT_TRUE(manager_->KillTe(gen2_a->id()).ok());  // ...and a Gen2 victim
  sim_.Run();
  EXPECT_EQ(completed.size(), 12u);
  EXPECT_EQ(je_->stats().failed_tes_handled, 2);
  EXPECT_GT(gen1_b->engine().stats().completed + gen2_b->engine().stats().completed, 0);
}

TEST(FaultScheduleTest, ParsesFullGrammar) {
  auto result = faults::FaultInjector::ParseSchedule(
      "npu@5;link@10:0.25x20;slow@30:3x10#2;shell@1.5;cm@12;je@7:1");
  ASSERT_TRUE(result.ok());
  const auto& events = *result;
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, faults::FaultKind::kNpuCrash);
  EXPECT_EQ(events[0].time, SToNs(5));
  EXPECT_EQ(events[0].target, -1);
  EXPECT_EQ(events[1].kind, faults::FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(events[1].factor, 0.25);
  EXPECT_EQ(events[1].duration, SToNs(20));
  EXPECT_EQ(events[2].kind, faults::FaultKind::kSlowNode);
  EXPECT_DOUBLE_EQ(events[2].factor, 3.0);
  EXPECT_EQ(events[2].duration, SToNs(10));
  EXPECT_EQ(events[2].target, 2);
  EXPECT_EQ(events[3].kind, faults::FaultKind::kTeShellCrash);
  EXPECT_EQ(events[3].time, SToNs(1.5));
  EXPECT_EQ(events[4].kind, faults::FaultKind::kCmCrash);
  EXPECT_EQ(events[4].time, SToNs(12));
  EXPECT_EQ(events[4].target, -1);
  EXPECT_EQ(events[4].duration, 0);  // permanent: recovery is the log's failover
  EXPECT_EQ(events[5].kind, faults::FaultKind::kJeCrash);
  EXPECT_EQ(events[5].time, SToNs(7));
  EXPECT_EQ(events[5].target, 1);  // ':' field is the JE ordinal
}

TEST(FaultScheduleTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("npu").ok());       // no '@'
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("meteor@5").ok());  // unknown kind
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("npu@").ok());      // missing time
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("npu@-3").ok());    // negative time
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("link@10:1.5").ok());  // factor > 1
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("slow@5:0.5").ok());   // factor < 1
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("cm@5:2").ok());    // cm takes no ':'
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("cm@5x10").ok());   // crash is permanent
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("je@5x10").ok());   // crash is permanent
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("je@5:bad").ok());  // ordinal not a number
  EXPECT_FALSE(faults::FaultInjector::ParseSchedule("je@5:-1").ok());   // negative ordinal
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  faults::FaultPlanConfig config;
  config.count = 16;
  auto a = faults::FaultInjector::GeneratePlan(99, config);
  auto b = faults::FaultInjector::GeneratePlan(99, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor);
    EXPECT_EQ(a[i].duration, b[i].duration);
  }
  // Sorted by time, inside the window.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].time, a[i].time);
  }
  for (const auto& event : a) {
    EXPECT_GE(event.time, config.window_start);
    EXPECT_LE(event.time, config.window_end);
  }
  auto c = faults::FaultInjector::GeneratePlan(100, config);
  bool differs = false;
  for (size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    differs = differs || a[i].time != c[i].time || a[i].kind != c[i].kind;
  }
  EXPECT_TRUE(differs);
}

// ---------------- Chaos property tests ----------------
//
// A full stack (Frontend -> JE -> 3 TEs, heartbeat detection, replacement
// scale-ups) driven through a chaos plan. The acceptance properties:
//   conservation — every request terminates in exactly ONE of
//                  on_complete / on_error;
//   determinism  — the same fault seed replays bit-for-bit;
//   isolation    — with faults disabled, the seed is irrelevant.

struct ChaosOutcome {
  std::vector<workload::RequestId> completed;  // in completion order
  std::vector<workload::RequestId> errored;    // in error order
  int64_t double_terminated = 0;
  int64_t crashes = 0;
  int64_t replacements = 0;
  int64_t sheds = 0;  // engine-level policy sheds (slo chaos variant)
  int64_t drains_started = 0;  // autoscaler chaos variant
  int64_t drains_aborted = 0;
  int64_t drain_timeouts = 0;
  int64_t hedges = 0;  // hedged chaos variant
  int64_t hedge_cancels = 0;
  int64_t ejections = 0;
  int64_t cm_crashes = 0;  // control-plane chaos variant
  int64_t cm_failovers = 0;
  int64_t je_crashes = 0;
  int64_t je_failovers = 0;
  TimeNs end_time = 0;

  bool operator==(const ChaosOutcome& other) const {
    return completed == other.completed && errored == other.errored &&
           double_terminated == other.double_terminated && crashes == other.crashes &&
           replacements == other.replacements && sheds == other.sheds &&
           drains_started == other.drains_started && drains_aborted == other.drains_aborted &&
           drain_timeouts == other.drain_timeouts && hedges == other.hedges &&
           hedge_cancels == other.hedge_cancels && ejections == other.ejections &&
           cm_crashes == other.cm_crashes && cm_failovers == other.cm_failovers &&
           je_crashes == other.je_crashes && je_failovers == other.je_failovers &&
           end_time == other.end_time;
  }
};

// `slo_deadlines` runs the same chaos plan with the engines on the "slo"
// scheduling policy and a tight deadline on every other request, so the
// conservation property additionally covers deadline sheds racing TE crashes.
// `autoscale` additionally runs a churny graceful-drain autoscaler over the
// colocated group, so drains race the chaos plan's crashes and the drain
// timeout's force-kill path.
// `ctrl_chaos` puts the CM and the JE on a shared replicated control log and
// adds cm/je leader crashes to the chaos plan, so leader outages and
// log-replay takeovers race everything above.
ChaosOutcome RunChaos(uint64_t fault_seed, bool enable_faults, bool slo_deadlines = false,
                      bool autoscale = false, bool ctrl_chaos = false) {
  constexpr int kRequests = 40;
  sim::Simulator sim;
  hw::ClusterConfig cc;
  cc.num_machines = 4;
  hw::Cluster cluster(&sim, cc);
  distflow::TransferEngine transfer(&sim, &cluster, distflow::DistFlowConfig{});
  ctrl::CtrlConfig ctrl_config;
  if (ctrl_chaos) {
    ctrl_config.replicas = 3;
    ctrl_config.quorum = 2;
    ctrl_config.replication_latency = MsToNs(1);
    ctrl_config.lease_duration = MsToNs(300);
  }
  ctrl::ControlLog ctrl_log(&sim, ctrl_config);
  serving::ClusterManager manager(&sim, &cluster, &transfer, {}, {},
                                  ctrl_chaos ? &ctrl_log : nullptr);
  serving::JeConfig config;
  config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim, config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  if (ctrl_chaos) {
    je.AttachControl(&ctrl_log, &manager);  // also registers the TE failure handler
  }
  flowserve::EngineConfig engine_config = SmallEngine(flowserve::EngineRole::kColocated);
  if (slo_deadlines) {
    engine_config.sched.policy = "slo";
  }
  std::vector<serving::TaskExecutor*> tes;
  std::vector<distflow::EndpointId> endpoints;
  for (int i = 0; i < 3; ++i) {
    auto* te = manager.CreateReadyTe(engine_config).value();
    je.AddColocatedTe(te);
    tes.push_back(te);
    endpoints.push_back(te->id());
  }
  DS_CHECK_OK(transfer.LinkCluster(endpoints, nullptr));
  sim.Run();
  if (!ctrl_chaos) {
    manager.AddFailureHandler([&](serving::TeId id) { je.OnTeFailure(id); });
  }
  serving::ScaleRequest replacement;
  replacement.engine = engine_config;
  manager.SetReplacementPolicy(replacement, [&](serving::TaskExecutor* te) {
    je.AddColocatedTe(te);
    tes.push_back(te);
  });

  if (autoscale) {
    // Churny on purpose: sheds quickly when queues thin out, scales back up
    // under pressure, and force-kills drains that stall — maximizing the
    // window where a draining TE can be hit by a chaos crash.
    serving::AutoscalerConfig as;
    as.policy = "reactive";
    as.check_interval = MsToNs(250);
    as.scale_up_queue_depth = 4;
    as.scale_down_queue_depth = 2;
    as.min_tes = 1;
    as.max_tes = 3;
    as.drain_timeout = SToNs(2);
    serving::ScaleRequest scale_request;
    scale_request.engine = engine_config;
    manager.StartAutoscaler(&je, as, scale_request);
  }

  serving::Frontend frontend(&sim);
  frontend.RegisterServingJe("tiny-1b", &je);

  faults::FaultInjector injector(&sim, &manager, fault_seed);
  if (ctrl_chaos) {
    injector.RegisterJobExecutor(&je);
  }
  if (enable_faults) {
    faults::FaultPlanConfig plan;
    plan.count = 6;
    plan.window_start = 0;
    plan.window_end = SToNs(10);
    if (ctrl_chaos) {
      plan.count = 8;
      plan.cm_crash_weight = 1.5;
      plan.je_crash_weight = 1.5;
    }
    injector.ScheduleAll(faults::FaultInjector::GeneratePlan(fault_seed, plan));
  }

  ChaosOutcome outcome;
  std::vector<int> terminations(kRequests + 1, 0);
  for (int i = 0; i < kRequests; ++i) {
    workload::RequestId id = static_cast<workload::RequestId>(i + 1);
    sim.ScheduleAt(MsToNs(200) * i, [&, id, i] {
      serving::ChatRequest request;
      request.model = "tiny-1b";
      request.spec = MakeRequest(id, 1024, 512, static_cast<TokenId>(100 + 37 * i));
      if (slo_deadlines && i % 2 == 0) {
        // Tight enough that some requests expire under load/crashes, loose
        // enough that some still finish: both termination paths get exercised.
        request.deadline = sim.Now() + MsToNs(1500);
      }
      serving::ResponseHandler handler;
      handler.on_complete = [&outcome, &terminations, id](const flowserve::Sequence&) {
        outcome.completed.push_back(id);
        if (++terminations[id] > 1) {
          ++outcome.double_terminated;
        }
      };
      handler.on_error = [&outcome, &terminations, id](const Status&) {
        outcome.errored.push_back(id);
        if (++terminations[id] > 1) {
          ++outcome.double_terminated;
        }
      };
      // A pre-dispatch rejection reports through the Status alone (the
      // handler never fires): count it as this request's one termination.
      Status status = frontend.ChatCompletion(std::move(request), std::move(handler));
      if (!status.ok()) {
        outcome.errored.push_back(id);
        if (++terminations[id] > 1) {
          ++outcome.double_terminated;
        }
      }
    });
  }
  if (autoscale) {
    sim.RunUntil(SToNs(60));
    manager.StopAutoscaler();
  }
  sim.Run();
  if (autoscale) {
    // Read after the final Run(): pending drain timeouts may still fire.
    const serving::AutoscalerStats& as_stats = manager.autoscaler()->stats();
    outcome.drains_started = as_stats.drains_started;
    outcome.drains_aborted = as_stats.drains_aborted;
    outcome.drain_timeouts = as_stats.drain_timeouts;
  }
  outcome.crashes = manager.stats().crashes;
  outcome.replacements = manager.stats().replacements;
  outcome.cm_crashes = manager.stats().cm_crashes;
  outcome.cm_failovers = manager.stats().cm_failovers;
  outcome.je_crashes = je.stats().je_crashes;
  outcome.je_failovers = je.stats().je_failovers;
  for (serving::TaskExecutor* te : tes) {
    outcome.sheds += te->engine().stats().shed;
  }
  outcome.end_time = sim.Now();
  // Frontend accounting stays conservative under churn.
  EXPECT_EQ(frontend.stats().requests,
            frontend.stats().chat_dispatched + frontend.stats().rejected_total());
  return outcome;
}

TEST(ChaosPropertyTest, EveryRequestTerminatesExactlyOnce) {
  for (uint64_t seed : {1ull, 7ull, 13ull, 42ull, 1234ull}) {
    ChaosOutcome outcome = RunChaos(seed, /*enable_faults=*/true);
    EXPECT_EQ(outcome.completed.size() + outcome.errored.size(), 40u)
        << "seed " << seed << " lost a request without on_error";
    EXPECT_EQ(outcome.double_terminated, 0) << "seed " << seed;
  }
}

TEST(ChaosPropertyTest, SameSeedReplaysBitForBit) {
  for (uint64_t seed : {7ull, 42ull}) {
    ChaosOutcome first = RunChaos(seed, /*enable_faults=*/true);
    ChaosOutcome second = RunChaos(seed, /*enable_faults=*/true);
    EXPECT_TRUE(first == second) << "seed " << seed << " diverged";
    EXPECT_GT(first.crashes + first.errored.size(), 0u) << "chaos plan was a no-op";
  }
}

TEST(ChaosPropertyTest, ShedsAndCrashesConserveRequests) {
  // Deadline sheds (slo policy) racing TE crashes must preserve the
  // exactly-once termination property, and must replay bit-for-bit.
  bool any_sheds = false;
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    ChaosOutcome outcome = RunChaos(seed, /*enable_faults=*/true, /*slo_deadlines=*/true);
    EXPECT_EQ(outcome.completed.size() + outcome.errored.size(), 40u)
        << "seed " << seed << " lost a request without on_error";
    EXPECT_EQ(outcome.double_terminated, 0) << "seed " << seed;
    // Every engine-level shed must have surfaced through on_error.
    EXPECT_LE(outcome.sheds, static_cast<int64_t>(outcome.errored.size())) << "seed " << seed;
    any_sheds = any_sheds || outcome.sheds > 0;

    ChaosOutcome replay = RunChaos(seed, /*enable_faults=*/true, /*slo_deadlines=*/true);
    EXPECT_TRUE(outcome == replay) << "seed " << seed << " diverged";
  }
  EXPECT_TRUE(any_sheds) << "deadlines were a no-op: nothing was shed";
}

TEST(ChaosPropertyTest, DrainingTesRacingCrashesConserveRequests) {
  // Graceful drains (and their force-kill timeouts) racing chaos crashes and
  // replacement scale-ups must preserve exactly-once termination, and the
  // whole tangle must replay bit-for-bit.
  bool any_drains = false;
  for (uint64_t seed : {1ull, 7ull, 13ull, 42ull}) {
    ChaosOutcome outcome =
        RunChaos(seed, /*enable_faults=*/true, /*slo_deadlines=*/false, /*autoscale=*/true);
    EXPECT_EQ(outcome.completed.size() + outcome.errored.size(), 40u)
        << "seed " << seed << " lost a request";
    EXPECT_EQ(outcome.double_terminated, 0) << "seed " << seed;
    any_drains = any_drains || outcome.drains_started > 0;

    ChaosOutcome replay =
        RunChaos(seed, /*enable_faults=*/true, /*slo_deadlines=*/false, /*autoscale=*/true);
    EXPECT_TRUE(outcome == replay) << "seed " << seed << " diverged";
  }
  EXPECT_TRUE(any_drains) << "the autoscaler never drained: the race was not exercised";
}

TEST(ChaosPropertyTest, ControlPlaneCrashesConserveRequestsAndReplay) {
  // CM and JE leader crashes (shared replicated log, log-replay takeover)
  // racing TE crashes, link flaps, and stragglers: exactly-once termination
  // and bit-identical replay must survive leader outages, and every injected
  // leader crash must eventually fail over (finite MTTR, no token loss).
  bool any_ctrl = false;
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    ChaosOutcome outcome = RunChaos(seed, /*enable_faults=*/true, /*slo_deadlines=*/false,
                                    /*autoscale=*/false, /*ctrl_chaos=*/true);
    EXPECT_EQ(outcome.completed.size() + outcome.errored.size(), 40u)
        << "seed " << seed << " lost a request across a leader outage";
    EXPECT_EQ(outcome.double_terminated, 0) << "seed " << seed;
    EXPECT_EQ(outcome.cm_failovers, outcome.cm_crashes)
        << "seed " << seed << " left a CM outage unrecovered";
    EXPECT_EQ(outcome.je_failovers, outcome.je_crashes)
        << "seed " << seed << " left a JE outage unrecovered";
    any_ctrl = any_ctrl || outcome.cm_crashes + outcome.je_crashes > 0;

    ChaosOutcome replay = RunChaos(seed, /*enable_faults=*/true, /*slo_deadlines=*/false,
                                   /*autoscale=*/false, /*ctrl_chaos=*/true);
    EXPECT_TRUE(outcome == replay) << "seed " << seed << " diverged";
  }
  EXPECT_TRUE(any_ctrl) << "no control-plane crash fired: the chaos mix was a no-op";
}

// Hedged requests racing TE crashes: two JE replicas behind a p2c frontend
// with hedging, outlier ejection, and a shared retry budget, driven through
// the same generated chaos plans. On top of exactly-once termination this
// pins engine-level token conservation — every sequence that entered an
// engine left it through exactly one of complete/cancel/abort/shed, so
// cancelled hedge losers release their tokens instead of leaking them.
ChaosOutcome RunHedgeChaos(uint64_t fault_seed) {
  constexpr int kRequests = 40;
  sim::Simulator sim;
  hw::ClusterConfig cc;
  cc.num_machines = 4;
  hw::Cluster cluster(&sim, cc);
  distflow::TransferEngine transfer(&sim, &cluster, distflow::DistFlowConfig{});
  serving::ClusterManager manager(&sim, &cluster, &transfer);
  serving::JeConfig config;
  config.policy = serving::SchedulingPolicy::kLoadOnly;
  flowserve::EngineConfig engine_config = SmallEngine(flowserve::EngineRole::kColocated);
  std::vector<std::unique_ptr<serving::JobExecutor>> jes;
  std::vector<serving::TaskExecutor*> tes;
  std::vector<distflow::EndpointId> endpoints;
  for (int i = 0; i < 2; ++i) {
    jes.push_back(std::make_unique<serving::JobExecutor>(
        &sim, config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor()));
    for (int t = 0; t < 2; ++t) {
      auto* te = manager.CreateReadyTe(engine_config).value();
      jes[i]->AddColocatedTe(te);
      tes.push_back(te);
      endpoints.push_back(te->id());
    }
  }
  DS_CHECK_OK(transfer.LinkCluster(endpoints, nullptr));
  sim.Run();
  manager.AddFailureHandler([&](serving::TeId id) {
    for (auto& je : jes) {
      je->OnTeFailure(id);
    }
  });

  serving::RouteConfig route;
  route.policy = "p2c";
  route.seed = 5;
  route.hedge_floor = MsToNs(400);
  route.eject_consecutive_errors = 2;
  route.retry_budget = true;
  route.retry_floor = 6;
  serving::Frontend frontend(&sim, route);
  for (auto& je : jes) {
    frontend.RegisterServingJe("tiny-1b", je.get());
  }

  faults::FaultInjector injector(&sim, &manager, fault_seed);
  faults::FaultPlanConfig plan;
  plan.count = 6;
  plan.window_start = 0;
  plan.window_end = SToNs(10);
  injector.ScheduleAll(faults::FaultInjector::GeneratePlan(fault_seed, plan));

  ChaosOutcome outcome;
  std::vector<int> terminations(kRequests + 1, 0);
  for (int i = 0; i < kRequests; ++i) {
    workload::RequestId id = static_cast<workload::RequestId>(i + 1);
    sim.ScheduleAt(MsToNs(200) * i, [&, id, i] {
      serving::ChatRequest request;
      request.model = "tiny-1b";
      request.spec = MakeRequest(id, 1024, 512, static_cast<TokenId>(100 + 37 * i));
      serving::ResponseHandler handler;
      handler.on_complete = [&outcome, &terminations, id](const flowserve::Sequence&) {
        outcome.completed.push_back(id);
        if (++terminations[id] > 1) {
          ++outcome.double_terminated;
        }
      };
      handler.on_error = [&outcome, &terminations, id](const Status&) {
        outcome.errored.push_back(id);
        if (++terminations[id] > 1) {
          ++outcome.double_terminated;
        }
      };
      Status status = frontend.ChatCompletion(std::move(request), std::move(handler));
      if (!status.ok()) {
        outcome.errored.push_back(id);
        if (++terminations[id] > 1) {
          ++outcome.double_terminated;
        }
      }
    });
  }
  sim.Run();
  outcome.crashes = manager.stats().crashes;
  outcome.hedges = frontend.stats().hedges_launched;
  outcome.hedge_cancels = frontend.stats().hedge_cancels;
  outcome.ejections = frontend.stats().ejections;
  outcome.end_time = sim.Now();
  EXPECT_EQ(frontend.stats().requests,
            frontend.stats().chat_dispatched + frontend.stats().rejected_total());
  for (serving::TaskExecutor* te : tes) {
    const flowserve::EngineStats& es = te->engine().stats();
    EXPECT_EQ(es.submitted, es.completed + es.cancelled + es.aborted + es.shed)
        << "TE " << te->id() << " leaked sequences";
    if (te->ready()) {
      EXPECT_TRUE(te->engine().idle()) << "TE " << te->id() << " still holds work at end";
    }
  }
  return outcome;
}

TEST(ChaosPropertyTest, HedgedRequestsRacingCrashesConserveRequestsAndTokens) {
  bool any_hedges = false;
  bool any_cancels = false;
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    ChaosOutcome outcome = RunHedgeChaos(seed);
    EXPECT_EQ(outcome.completed.size() + outcome.errored.size(), 40u)
        << "seed " << seed << " lost a request";
    EXPECT_EQ(outcome.double_terminated, 0) << "seed " << seed;
    any_hedges = any_hedges || outcome.hedges > 0;
    any_cancels = any_cancels || outcome.hedge_cancels > 0;

    ChaosOutcome replay = RunHedgeChaos(seed);
    EXPECT_TRUE(outcome == replay) << "seed " << seed << " diverged";
  }
  EXPECT_TRUE(any_hedges) << "hedging was a no-op under chaos";
  EXPECT_TRUE(any_cancels) << "no hedge loser was ever cancelled";
}

TEST(ChaosPropertyTest, DisabledFaultsMakeSeedIrrelevant) {
  ChaosOutcome a = RunChaos(7, /*enable_faults=*/false);
  ChaosOutcome b = RunChaos(99, /*enable_faults=*/false);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.errored.size(), 0u);
  EXPECT_EQ(a.completed.size(), 40u);
  EXPECT_EQ(a.crashes, 0);
}

}  // namespace
}  // namespace deepserve
