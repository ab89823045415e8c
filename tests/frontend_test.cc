// Frontend routing, multi-tenant priority classes, and SLA-aware adaptive
// chunking tests.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/time_units.h"
#include "distflow/distflow.h"
#include "flowserve/engine.h"
#include "hw/cluster.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"

namespace deepserve {
namespace {

flowserve::EngineConfig SmallEngine(flowserve::EngineRole role,
                                    const model::ModelSpec& model = model::ModelSpec::Tiny1B()) {
  flowserve::EngineConfig config;
  config.model = model;
  config.parallelism = {1, 1, 1};
  config.role = role;
  config.kv_block_capacity_override = 4096;
  return config;
}

workload::RequestSpec MakeRequest(workload::RequestId id, int64_t prefill, int64_t decode,
                                  TokenId base = 900) {
  workload::RequestSpec spec;
  spec.id = id;
  spec.decode_len = decode;
  std::vector<TokenId> tokens;
  for (int64_t i = 0; i < prefill; ++i) {
    tokens.push_back(base + static_cast<TokenId>(i % 6000));
  }
  spec.prompt = std::move(tokens);
  return spec;
}

// ---------------- Frontend ----------------

serving::ChatRequest Chat(const std::string& model, workload::RequestSpec spec) {
  serving::ChatRequest request;
  request.model = model;
  request.spec = std::move(spec);
  return request;
}

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() {
    hw::ClusterConfig cc;
    cc.num_machines = 2;
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cc);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    manager_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(),
                                                         transfer_.get());
  }

  std::unique_ptr<serving::JobExecutor> MakeJeWithTe() {
    serving::JeConfig config;
    config.policy = serving::SchedulingPolicy::kLoadOnly;
    auto je = std::make_unique<serving::JobExecutor>(
        &sim_, config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor());
    auto te = manager_->CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
    je->AddColocatedTe(te);
    last_te_ = te;
    return je;
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<serving::ClusterManager> manager_;
  serving::TaskExecutor* last_te_ = nullptr;
};

TEST_F(FrontendTest, RoutesByModelName) {
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je.get());
  bool done = false;
  EXPECT_TRUE(frontend
                  .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 128, 8)),
                                  {nullptr, [&](const flowserve::Sequence&) { done = true; },
                                   nullptr})
                  .ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(frontend.stats().chat_dispatched, 1);
}

TEST_F(FrontendTest, UnknownModelRejectedThroughStatusExactlyOnce) {
  // Exactly-once reporting: a pre-dispatch rejection is the returned Status
  // and nothing else — the handler must NOT also fire (callers that count
  // both would double-count the request).
  serving::Frontend frontend;
  int error_calls = 0;
  Status s = frontend.ChatCompletion(Chat("gpt-17", MakeRequest(1, 64, 4)),
                                     {nullptr, nullptr, [&](const Status&) { ++error_calls; }});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(error_calls, 0);  // the Status is the one and only report
  EXPECT_EQ(frontend.stats().rejected(serving::RejectReason::kUnknownModel), 1);
  EXPECT_EQ(frontend.stats().rejected_total(), 1);
  EXPECT_EQ(frontend.stats().errors, 0);  // rejected, not errored-after-dispatch
}

TEST_F(FrontendTest, DeadlineAlreadyMissedRejected) {
  serving::Frontend frontend(&sim_);
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je.get());
  sim_.ScheduleAt(MsToNs(100), [&] {
    auto request = Chat("tiny-1b", MakeRequest(1, 64, 4));
    request.deadline = MsToNs(50);  // already in the past
    int error_calls = 0;
    EXPECT_EQ(frontend.ChatCompletion(std::move(request),
                                      {nullptr, nullptr, [&](const Status&) { ++error_calls; }})
                  .code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(error_calls, 0);  // reported via Status only
  });
  sim_.Run();
  EXPECT_EQ(frontend.stats().rejected(serving::RejectReason::kDeadline), 1);
  EXPECT_EQ(frontend.stats().chat_dispatched, 0);
}

TEST_F(FrontendTest, PriorityOverrideReachesEngine) {
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je.get());
  auto request = Chat("tiny-1b", MakeRequest(1, 64, 4));
  request.spec.priority = 2;
  request.priority = 0;  // envelope overrides the spec
  int seen_priority = -1;
  ASSERT_TRUE(frontend
                  .ChatCompletion(std::move(request),
                                  {nullptr,
                                   [&](const flowserve::Sequence& seq) {
                                     seen_priority = seq.priority;
                                   },
                                   nullptr})
                  .ok());
  sim_.Run();
  EXPECT_EQ(seen_priority, 0);
}

TEST_F(FrontendTest, RoundRobinAcrossJeReplicas) {
  serving::Frontend frontend;
  auto je1 = MakeJeWithTe();
  auto je2 = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je1.get());
  frontend.RegisterServingJe("tiny-1b", je2.get());
  EXPECT_EQ(frontend.je_count("tiny-1b"), 2u);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 1),
                                                        64, 4)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(je1->stats().requests, 3);
  EXPECT_EQ(je2->stats().requests, 3);
}

TEST_F(FrontendTest, SkipsJeWithoutCapacity) {
  serving::Frontend frontend;
  serving::JeConfig config;
  auto empty_je = std::make_unique<serving::JobExecutor>(
      &sim_, config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor());
  auto good_je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", empty_je.get());
  frontend.RegisterServingJe("tiny-1b", good_je.get());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 1),
                                                        64, 4)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  EXPECT_EQ(empty_je->stats().requests, 0);
  EXPECT_EQ(good_je->stats().requests, 4);
  sim_.Run();
}

TEST_F(FrontendTest, AllReplicasDownMeansUnavailable) {
  serving::Frontend frontend;
  serving::JeConfig config;
  auto empty_je = std::make_unique<serving::JobExecutor>(
      &sim_, config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor());
  frontend.RegisterServingJe("tiny-1b", empty_je.get());
  EXPECT_EQ(frontend
                .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 64, 4)),
                                {nullptr, nullptr, nullptr})
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(frontend.stats().rejected(serving::RejectReason::kNoCapacity), 1);
}

TEST_F(FrontendTest, CapacityConsultsTeStateNotGroupMembership) {
  // A JE whose only TE has failed still *has* the TE in its group; a
  // group-membership check would route to it. ReadyCapacityWeight must
  // consult TeState instead.
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je.get());
  ASSERT_TRUE(manager_->KillTe(last_te_->id()).ok());
  EXPECT_EQ(frontend
                .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 64, 4)),
                                {nullptr, nullptr, nullptr})
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(je->stats().requests, 0);
}

TEST_F(FrontendTest, RoundRobinSkipsFailedReplicaAndResumesOnReplacement) {
  serving::Frontend frontend;
  auto je1 = MakeJeWithTe();
  auto* te1 = last_te_;
  auto je2 = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je1.get());
  frontend.RegisterServingJe("tiny-1b", je2.get());
  manager_->AddFailureHandler([&](serving::TeId id) {
    je1->OnTeFailure(id);
    je2->OnTeFailure(id);
  });

  // je1's TE fails mid-stream: subsequent requests all land on je2.
  ASSERT_TRUE(manager_->KillTe(te1->id()).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 1),
                                                        64, 4)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  EXPECT_EQ(je1->stats().requests, 0);
  EXPECT_EQ(je2->stats().requests, 4);
  sim_.Run();

  // A replacement replica registered later re-enters the rotation.
  auto je3 = MakeJeWithTe();
  frontend.RegisterServingJe("tiny-1b", je3.get());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frontend
                    .ChatCompletion(Chat("tiny-1b", MakeRequest(
                                                        static_cast<workload::RequestId>(i + 10),
                                                        64, 4)),
                                    {nullptr, nullptr, nullptr})
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(je3->stats().requests, 2);
  EXPECT_EQ(je2->stats().requests, 6);
}

TEST_F(FrontendTest, PostDispatchLossDeliversOnError) {
  // The request is accepted (Status OK), then its TE dies with no surviving
  // capacity: the failure must surface through on_error, exactly once.
  serving::Frontend frontend;
  auto je = MakeJeWithTe();
  auto* te = last_te_;
  frontend.RegisterServingJe("tiny-1b", je.get());
  manager_->AddFailureHandler([&](serving::TeId id) { je->OnTeFailure(id); });

  int completions = 0;
  int errors = 0;
  Status seen = Status::Ok();
  ASSERT_TRUE(frontend
                  .ChatCompletion(Chat("tiny-1b", MakeRequest(1, 2048, 2048)),
                                  {nullptr,
                                   [&](const flowserve::Sequence&) { ++completions; },
                                   [&](const Status& e) {
                                     ++errors;
                                     seen = e;
                                   }})
                  .ok());
  sim_.RunUntil(MsToNs(100));  // request in flight
  ASSERT_TRUE(manager_->KillTe(te->id()).ok());
  sim_.Run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(errors, 1);
  EXPECT_FALSE(seen.ok());
  EXPECT_EQ(frontend.stats().errors, 1);
  EXPECT_EQ(frontend.stats().rejected_total(), 0);
  EXPECT_EQ(frontend.stats().chat_dispatched, 1);
}

TEST_F(FrontendTest, FineTuneRouting) {
  serving::Frontend frontend;
  EXPECT_EQ(frontend.FineTune(serving::FineTuneRequest{}, nullptr).code(),
            StatusCode::kUnavailable);
  serving::FineTuneJobExecutor ft(&sim_, manager_.get());
  frontend.RegisterFineTuneExecutor(&ft);
  serving::FineTuneRequest request;
  request.base_model = model::ModelSpec::Tiny1B();
  request.parallelism = {8, 1, 1};
  request.dataset_tokens = 100000;
  bool done = false;
  EXPECT_TRUE(frontend.FineTune(request, [&](const serving::FineTuneResult& r) {
    done = r.succeeded;
  }).ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(frontend.stats().finetune_dispatched, 1);
}

// ---------------- Priority classes ----------------

TEST(PriorityTest, InteractiveJumpsTheQueue) {
  sim::Simulator sim;
  auto config = SmallEngine(flowserve::EngineRole::kColocated);
  config.max_batch_seqs = 2;  // force queueing
  flowserve::Engine engine(&sim, config);
  // A pile of batch-class work...
  for (int i = 0; i < 12; ++i) {
    auto spec = MakeRequest(static_cast<workload::RequestId>(i + 1), 1024, 256,
                            static_cast<TokenId>(100 + 501 * i));
    spec.priority = 2;
    engine.Submit(spec, nullptr, nullptr);
  }
  // ...then one interactive request arrives late.
  TimeNs vip_first = 0;
  sim.ScheduleAt(MsToNs(50), [&] {
    auto vip = MakeRequest(100, 1024, 8, 30000);
    vip.priority = 0;
    engine.Submit(vip, [&](const flowserve::Sequence& seq) {
      vip_first = seq.first_token_time;
    }, nullptr);
  });
  // An equally-late batch request for comparison.
  TimeNs batch_first = 0;
  sim.ScheduleAt(MsToNs(50), [&] {
    auto late = MakeRequest(101, 1024, 8, 50000);
    late.priority = 2;
    engine.Submit(late, [&](const flowserve::Sequence& seq) {
      batch_first = seq.first_token_time;
    }, nullptr);
  });
  sim.Run();
  EXPECT_GT(vip_first, 0);
  EXPECT_GT(batch_first, 0);
  EXPECT_LT(vip_first, batch_first);
}

TEST(PriorityTest, PreemptionVictimizesBatchClassFirst) {
  sim::Simulator sim;
  auto config = SmallEngine(flowserve::EngineRole::kColocated);
  config.kv_block_capacity_override = 96;
  flowserve::Engine engine(&sim, config);
  // One interactive and one batch decode fill the KV space; growth pressure
  // must preempt the batch one.
  auto vip = MakeRequest(1, 512, 512, 1000);
  vip.priority = 0;
  TimeNs vip_done = 0;
  engine.Submit(vip, nullptr,
                [&](const flowserve::Sequence& seq) { vip_done = seq.finish_time; });
  auto batch = MakeRequest(2, 512, 512, 40000);
  batch.priority = 2;
  TimeNs batch_done = 0;
  engine.Submit(batch, nullptr,
                [&](const flowserve::Sequence& seq) { batch_done = seq.finish_time; });
  sim.Run();
  EXPECT_GT(engine.stats().preemptions, 0);
  EXPECT_GT(vip_done, 0);
  EXPECT_GT(batch_done, 0);
  EXPECT_LT(vip_done, batch_done);  // the interactive request never yielded
}

}  // namespace
}  // namespace deepserve
