// Cross-module integration tests: whole serving pipelines on the simulated
// cluster — platform + engines + RTC + DistFlow together.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/time_units.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "serving/cluster_manager.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"
#include "job_ledger.h"

namespace deepserve {
namespace {

using serving::SchedulingPolicy;

flowserve::EngineConfig SmallEngine(flowserve::EngineRole role) {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Tiny1B();
  config.parallelism = {1, 1, 1};
  config.role = role;
  return config;
}

// A whole-platform fixture: cluster + DistFlow + manager + JE.
class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest() {
    hw::ClusterConfig cluster_config;
    cluster_config.num_machines = 4;
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cluster_config);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    manager_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(),
                                                         transfer_.get());
  }

  void MakeJe(SchedulingPolicy policy) {
    serving::JeConfig config;
    config.policy = policy;
    je_ = std::make_unique<serving::JobExecutor>(&sim_, config, serving::PdHeatmap::Default(),
                                                 serving::MakeOraclePredictor());
  }

  void BuildFleet(int colocated, int prefill, int decode) {
    std::vector<distflow::EndpointId> endpoints;
    auto add = [&](flowserve::EngineRole role) {
      auto te = manager_->CreateReadyTe(SmallEngine(role)).value();
      endpoints.push_back(te->id());
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
    };
    for (int i = 0; i < colocated; ++i) {
      add(flowserve::EngineRole::kColocated);
    }
    for (int i = 0; i < prefill; ++i) {
      add(flowserve::EngineRole::kPrefillOnly);
    }
    for (int i = 0; i < decode; ++i) {
      add(flowserve::EngineRole::kDecodeOnly);
    }
    ASSERT_TRUE(transfer_->LinkCluster(endpoints, nullptr).ok());
    sim_.Run();
  }

  workload::MetricsCollector Replay(const std::vector<workload::RequestSpec>& trace) {
    workload::MetricsCollector metrics;
    auto first_tokens = std::make_shared<std::map<workload::RequestId, TimeNs>>();
    for (const auto& spec : trace) {
      sim_.ScheduleAt(spec.arrival, [this, &metrics, first_tokens, spec] {
        je_->HandleRequest(
            spec, {[first_tokens, id = spec.id](const flowserve::Sequence& seq) {
              (*first_tokens)[id] = seq.first_token_time;
            }, [&metrics, first_tokens, spec](const flowserve::Sequence& seq) {
              workload::RequestRecord record;
              record.id = spec.id;
              record.arrival = spec.arrival;
              auto it = first_tokens->find(spec.id);
              record.first_token =
                  it != first_tokens->end() ? it->second : seq.first_token_time;
              record.completion = seq.finish_time;
              record.prefill_len = spec.prefill_len();
              record.decode_len = spec.decode_len;
              metrics.Record(record);
            }, nullptr});
      });
    }
    sim_.Run();
    return metrics;
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<serving::ClusterManager> manager_;
  std::unique_ptr<serving::JobExecutor> je_;
};

TEST_F(PlatformTest, MixedFleetServesWholeTrace) {
  MakeJe(SchedulingPolicy::kCombined);
  BuildFleet(2, 1, 1);
  auto config = workload::TraceGenerator::InternalTrace(3.0, 30.0, 1);
  config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  config.decode = workload::LengthDistribution{48, 0.4, 4, 256};
  auto trace = workload::TraceGenerator(config).Generate();
  auto metrics = Replay(trace);
  EXPECT_EQ(metrics.completed(), trace.size());
  EXPECT_GT(metrics.ttft_ms().p50(), 0.0);
  EXPECT_GT(metrics.tpot_ms().p50(), 0.0);
  // Metrics are causally ordered for every record.
  for (const auto& record : metrics.records()) {
    EXPECT_GE(record.first_token, record.arrival);
    EXPECT_GE(record.completion, record.first_token);
  }
}

TEST_F(PlatformTest, JobLedgerConsistentAfterRun) {
  MakeJe(SchedulingPolicy::kCombined);
  BuildFleet(1, 1, 1);
  auto trace = workload::TraceGenerator(
                   workload::TraceGenerator::CodeGenTrace(2.0, 20.0, 3))
                   .Generate();
  Replay(trace);
  const JobLedger ledger = ReadJobLedger(*je_);
  EXPECT_EQ(ledger.jobs.size(), trace.size());
  for (const auto& job : ledger.jobs) {
    EXPECT_EQ(job.state, serving::JobState::kCompleted);
    EXPECT_GE(job.completed, job.created);
    ASSERT_FALSE(job.tasks.empty());
    ASSERT_LE(job.tasks.size(), 2u);
    for (serving::TaskId task_id : job.tasks) {
      const auto& task = ledger.tasks[task_id - 1];
      EXPECT_EQ(task.state, serving::TaskState::kCompleted);
      EXPECT_EQ(task.job, job.id);
      EXPECT_GE(task.completed, task.dispatched);
    }
  }
}

TEST_F(PlatformTest, DisaggregatedKvTransferIsTimedThroughDistFlow) {
  MakeJe(SchedulingPolicy::kCombined);
  BuildFleet(0, 1, 1);
  auto batch = workload::TraceGenerator::FixedBatch(4, 1024, 32);
  Replay(batch);
  // Every request moved KV prefill -> decode over the fabric.
  EXPECT_GE(transfer_->stats().transfers, 4);
  EXPECT_GT(transfer_->stats().bytes_moved, 0u);
}

TEST_F(PlatformTest, ByRequestTransferSlowerThanByLayer) {
  auto run = [&](flowserve::KvTransferMode mode) {
    sim::Simulator sim;
    hw::ClusterConfig cc;
    cc.num_machines = 2;
    hw::Cluster cluster(&sim, cc);
    distflow::TransferEngine transfer(&sim, &cluster, {});
    serving::ClusterManager manager(&sim, &cluster, &transfer);
    auto engine_config = SmallEngine(flowserve::EngineRole::kPrefillOnly);
    engine_config.kv_transfer_mode = mode;
    auto prefill = manager.CreateReadyTe(engine_config).value();
    engine_config.role = flowserve::EngineRole::kDecodeOnly;
    auto decode = manager.CreateReadyTe(engine_config).value();
    EXPECT_TRUE(transfer.LinkCluster({prefill->id(), decode->id()}, nullptr).ok());
    sim.Run();
    TimeNs done = 0;
    auto batch = workload::TraceGenerator::FixedBatch(1, 2048, 64);
    prefill->SubmitPrefill(
        batch[0], decode,
        {nullptr, [&](const flowserve::Sequence& seq) { done = seq.finish_time; }, nullptr});
    sim.Run();
    return done;
  };
  TimeNs by_req = run(flowserve::KvTransferMode::kByRequest);
  TimeNs by_layer = run(flowserve::KvTransferMode::kByLayer);
  EXPECT_LT(by_layer, by_req);
}

TEST_F(PlatformTest, ScaledUpTeImmediatelyServes) {
  MakeJe(SchedulingPolicy::kLoadOnly);
  BuildFleet(1, 0, 0);
  manager_->ReservePrewarmedPods(2);
  manager_->ReservePrewarmedTes(2);
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  bool served = false;
  ASSERT_TRUE(manager_
                  ->ScaleUp(request,
                            [&](serving::TaskExecutor* te, const auto&) {
                              ASSERT_NE(te, nullptr);
                              je_->AddColocatedTe(te);
                              auto batch = workload::TraceGenerator::FixedBatch(1, 256, 8);
                              te->SubmitUnified(batch[0],
                                                {nullptr,
                                                 [&](const flowserve::Sequence&) {
                                                   served = true;
                                                 },
                                                 nullptr});
                            })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(served);
}

TEST_F(PlatformTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    sim::Simulator sim;
    hw::ClusterConfig cc;
    cc.num_machines = 2;
    hw::Cluster cluster(&sim, cc);
    distflow::TransferEngine transfer(&sim, &cluster, {});
    serving::ClusterManager manager(&sim, &cluster, &transfer);
    serving::JeConfig je_config;
    je_config.policy = SchedulingPolicy::kCombined;
    serving::JobExecutor je(&sim, je_config, serving::PdHeatmap::Default(),
                            serving::MakeNoisyPredictor(0.9, seed));
    auto te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
    je.AddColocatedTe(te);
    auto trace = workload::TraceGenerator(
                     workload::TraceGenerator::InternalTrace(2.0, 20.0, seed))
                     .Generate();
    std::vector<TimeNs> completions;
    for (const auto& spec : trace) {
      sim.ScheduleAt(spec.arrival, [&, spec] {
        je.HandleRequest(spec, {nullptr, [&](const flowserve::Sequence& seq) {
          completions.push_back(seq.finish_time);
        }, nullptr});
      });
    }
    sim.Run();
    return completions;
  };
  auto a = run_once(7);
  auto b = run_once(7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "run diverged at completion " << i;
  }
}

TEST_F(PlatformTest, CachePressureWithLocalityStillCompletesEverything) {
  MakeJe(SchedulingPolicy::kCombined);
  // Tiny KV capacity to force constant eviction/preemption under load.
  auto engine_config = SmallEngine(flowserve::EngineRole::kColocated);
  engine_config.kv_block_capacity_override = 256;
  auto te1 = manager_->CreateReadyTe(engine_config).value();
  auto te2 = manager_->CreateReadyTe(engine_config).value();
  je_->AddColocatedTe(te1);
  je_->AddColocatedTe(te2);
  auto config = workload::TraceGenerator::CodeGenTrace(4.0, 20.0, 9);
  config.prefill = workload::LengthDistribution{768, 0.4, 128, 2048};
  config.decode = workload::LengthDistribution{64, 0.5, 8, 256};
  auto trace = workload::TraceGenerator(config).Generate();
  auto metrics = Replay(trace);
  EXPECT_EQ(metrics.completed(), trace.size());
  // After the run all sequence pins are gone: only cached blocks remain.
  EXPECT_TRUE(te1->engine().idle());
  EXPECT_TRUE(te2->engine().idle());
}

TEST_F(PlatformTest, PopulatePathExercisedUnderTierPressure) {
  MakeJe(SchedulingPolicy::kLocalityOnly);
  auto engine_config = SmallEngine(flowserve::EngineRole::kColocated);
  engine_config.kv_block_capacity_override = 512;
  auto te = manager_->CreateReadyTe(engine_config).value();
  je_->AddColocatedTe(te);
  // A repeated long prefix interleaved with cache-thrashing filler: the
  // prefix gets demoted to DRAM and later populated back.
  std::vector<workload::RequestSpec> trace;
  Rng rng(4);
  workload::RequestId id = 1;
  auto make = [&](TokenId base, int64_t len, TimeNs at) {
    workload::RequestSpec spec;
    spec.id = id++;
    spec.arrival = at;
    spec.decode_len = 4;
    for (int64_t i = 0; i < len; ++i) {
      spec.prompt.push_back(base + static_cast<TokenId>(i % 3000));
    }
    trace.push_back(spec);
  };
  make(1000, 2048, 0);  // the hot prefix
  for (int i = 0; i < 12; ++i) {  // filler that overflows the NPU pool
    make(static_cast<TokenId>(40000 + i * 4000), 1536, SToNs(0.5 + 0.4 * i));
  }
  make(1000, 2048, SToNs(8.0));  // prefix returns
  auto metrics = Replay(trace);
  EXPECT_EQ(metrics.completed(), trace.size());
  const auto& stats = te->engine().rtc().stats();
  EXPECT_GT(stats.evicted_blocks + stats.discarded_blocks + stats.swapped_out_blocks, 0);
}

}  // namespace
}  // namespace deepserve
