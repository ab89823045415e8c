// Replicated control-plane tests: the sequenced shared log, deterministic
// state-machine replay, CM/JE leader failover, the pipeline-abort crash path,
// and the 3-seed golden parity pin proving the degenerate log config is
// bit-identical to the pre-log tree.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "ctrl/job_table.h"
#include "ctrl/te_directory.h"
#include "distflow/distflow.h"
#include "faults/fault_injector.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "serving/autoscaler.h"
#include "serving/cluster_manager.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
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

// What `domain`'s kJobCreated records still hold beyond their fixed ints:
// the tokens of the prompts they reference plus context-id bytes.
int64_t CreatedPayload(const ctrl::ControlLog& log, int32_t domain) {
  int64_t payload = 0;
  for (const ctrl::LogRecord& record : log.records()) {
    if (record.domain == domain && record.type == ctrl::JobTable::kJobCreated) {
      EXPECT_EQ(record.ints.size(), 7u);
      payload += static_cast<int64_t>(record.prompt.size() + record.str.size());
    }
  }
  return payload;
}

// ---------------- ControlLog: sequencing, apply, replay ----------------

TEST(ControlLogTest, SequencesAcrossDomainsInAppendOrder) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  const int32_t alpha = log.RegisterDomain("alpha");
  const int32_t beta = log.RegisterDomain("beta");
  EXPECT_NE(alpha, beta);

  EXPECT_EQ(log.Append({0, 0, alpha, 1, {}, {}}).seq, 0u);
  EXPECT_EQ(log.Append({0, 0, beta, 1, {}, {}}).seq, 1u);
  EXPECT_EQ(log.Append({0, 0, alpha, 2, {}, {}}).seq, 2u);
  EXPECT_EQ(log.next_seq(), 3u);
  EXPECT_EQ(log.CountDomain(alpha), 2);
  EXPECT_EQ(log.CountDomain(beta), 1);
  EXPECT_EQ(log.records().size(), 3u);
}

TEST(ControlLogTest, AppendAppliesInlineToAttachedMachine) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable table(log.RegisterDomain("job-table"));
  log.Attach(&table);

  log.Append({0, 0, table.domain(), ctrl::JobTable::kRrAdvanced, {}, {}});
  log.Append({0, 0, table.domain(), ctrl::JobTable::kTeAdded,
              {ctrl::JobTable::kColocated, 7}, {}});
  EXPECT_EQ(table.rr_cursor(), 1u);
  ASSERT_EQ(table.group(ctrl::JobTable::kColocated).size(), 1u);
  EXPECT_EQ(table.group(ctrl::JobTable::kColocated)[0], 7);
  EXPECT_EQ(table.applied(), 2u);

  // Detached machines stop observing appends.
  log.Detach(table.domain());
  log.Append({0, 0, table.domain(), ctrl::JobTable::kRrAdvanced, {}, {}});
  EXPECT_EQ(table.rr_cursor(), 1u);
}

TEST(ControlLogTest, ReplayFromNothingMatchesLiveFingerprint) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable live(log.RegisterDomain("job-table"));
  log.Attach(&live);
  const int32_t other = log.RegisterDomain("other");

  log.Append({0, 0, live.domain(), ctrl::JobTable::kTeAdded, {ctrl::JobTable::kColocated, 3}, {}});
  log.Append({0, 0, other, 99, {1, 2, 3}, "noise"});  // foreign domain: must be filtered
  log.Append({0, 0, live.domain(), ctrl::JobTable::kTeAdded, {ctrl::JobTable::kPrefill, 4}, {}});
  log.Append({0, 0, live.domain(), ctrl::JobTable::kRrAdvanced, {}, {}});
  log.Append({0, 0, live.domain(), ctrl::JobTable::kTeRemoved, {3}, {}});

  ctrl::JobTable standby(live.domain());
  log.ReplayInto(&standby);
  EXPECT_EQ(standby.Fingerprint(), live.Fingerprint());
  EXPECT_EQ(standby.applied(), live.applied());
}

// kJobCreated references the request's prompt instead of copying it: the
// applied outstanding entry shares the record's storage, and DropPayload
// releases the record's reference while keeping its ints.
TEST(ControlLogTest, JobCreatedSharesPromptAndDropPayloadReleasesIt) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable table(log.RegisterDomain("job-table"));
  log.Attach(&table);
  const workload::Prompt prompt(std::vector<TokenId>{11, 12, 13, 14});
  log.Append({0, 0, table.domain(), ctrl::JobTable::kJobCreated, {1, 42, 0, 5, 8, 1, 0}, "ctx",
              prompt});
  const ctrl::LogRecord& record = log.records().front();
  EXPECT_TRUE(record.prompt.SharesStorage(prompt));
  EXPECT_TRUE(table.outstanding().at(1).spec.prompt.SharesStorage(prompt));
  EXPECT_EQ(table.outstanding().at(1).spec.context_id, "ctx");

  log.DropPayload(record.seq);
  EXPECT_TRUE(log.records().front().prompt.empty());
  EXPECT_FALSE(log.records().front().prompt.SharesStorage(prompt));
  EXPECT_TRUE(log.records().front().str.empty());
  EXPECT_EQ(log.records().front().ints.size(), 7u);
}

TEST(ControlLogTest, SnapshotPlusRangeReplayMatchesLive) {
  sim::Simulator sim;
  ctrl::ControlLog log(&sim);
  ctrl::JobTable live(log.RegisterDomain("job-table"));
  log.Attach(&live);

  log.Append({0, 0, live.domain(), ctrl::JobTable::kTeAdded, {ctrl::JobTable::kColocated, 1}, {}});
  log.Append({0, 0, live.domain(), ctrl::JobTable::kTeAdded, {ctrl::JobTable::kDecode, 2}, {}});

  // The "snapshot" is a plain value copy taken at a known sequence point.
  ctrl::JobTable snapshot = live;
  const uint64_t snapshot_seq = log.next_seq() - 1;

  log.Append({0, 0, live.domain(), ctrl::JobTable::kRrAdvanced, {}, {}});
  log.Append({0, 0, live.domain(), ctrl::JobTable::kTeRemoved, {2}, {}});

  EXPECT_NE(snapshot.Fingerprint(), live.Fingerprint());
  log.ReplayRange(&snapshot, snapshot_seq);
  EXPECT_EQ(snapshot.Fingerprint(), live.Fingerprint());
  EXPECT_EQ(snapshot.applied(), live.applied());
}

TEST(ControlLogTest, FailoverDelayChargesLeaseGapAndTailReplay) {
  sim::Simulator sim;
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(2);
  config.lease_duration = MsToNs(100);
  config.replay_cost_per_record = UsToNs(2);
  ctrl::ControlLog log(&sim, config);
  EXPECT_TRUE(log.replicated());
  const int32_t domain = log.RegisterDomain("dir");

  // Three records at t=0, two more at t=10ms.
  for (int i = 0; i < 3; ++i) log.Append({0, 0, domain, 1, {}, {}});
  sim.ScheduleAt(MsToNs(10), [&] {
    log.Append({0, 0, domain, 1, {}, {}});
    log.Append({0, 0, domain, 1, {}, {}});
  });
  sim.Run();

  // Crash at t=11ms: the replication horizon is 9ms, so only the two records
  // stamped at 10ms are still unreplicated.
  const TimeNs crash = MsToNs(11);
  EXPECT_EQ(log.UnreplicatedAt(crash), 2);
  EXPECT_EQ(log.FailoverDelay(crash),
            MsToNs(100) + MsToNs(2) + 2 * UsToNs(2));

  // Long after the appends everything has replicated; only lease + fetch remain.
  EXPECT_EQ(log.UnreplicatedAt(SToNs(5)), 0);
  EXPECT_EQ(log.FailoverDelay(SToNs(5)), MsToNs(100) + MsToNs(2));
}

TEST(ControlLogTest, DegenerateConfigIsNotReplicated) {
  sim::Simulator sim;
  ctrl::ControlLog degenerate(&sim);
  EXPECT_FALSE(degenerate.replicated());
  EXPECT_EQ(degenerate.UnreplicatedAt(SToNs(1)), 0);
}

TEST(CtrlConfigTest, ValidateRefusesWhatNoLogCanRun) {
  EXPECT_TRUE(ctrl::CtrlConfig{}.Validate().ok());
  ctrl::CtrlConfig three;
  three.replicas = 3;
  three.quorum = 2;
  three.replication_latency = 0;
  three.lease_duration = 0;
  three.replay_cost_per_record = 0;
  EXPECT_TRUE(three.Validate().ok()) << "zero durations are allowed";
  auto refused = [&three](auto mutate) {
    ctrl::CtrlConfig config = three;
    mutate(config);
    return config.Validate().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.replicas = 0; }));
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.replicas = -1; }));
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.quorum = 0; }));
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.quorum = 4; }));
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.replication_latency = -1; }));
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.lease_duration = -1; }));
  EXPECT_TRUE(refused([](ctrl::CtrlConfig& c) { c.replay_cost_per_record = -1; }));
}

TEST(AutoscalerConfigTest, ValidateRefusesWhatNoAutoscalerCanRun) {
  EXPECT_TRUE(serving::AutoscalerConfig{}.Validate().ok());
  for (const char* policy : {"reactive", "predictive", "slo"}) {
    serving::AutoscalerConfig config;
    config.policy = policy;
    EXPECT_TRUE(config.Validate().ok()) << policy;
  }
  serving::AutoscalerConfig edge;
  edge.min_tes = 3;
  edge.max_tes = 3;
  edge.headroom_tes = 0;
  edge.drain_timeout = 0;
  EXPECT_TRUE(edge.Validate().ok()) << "min == max, no headroom, no drain timeout";
  auto refused = [&edge](auto mutate) {
    serving::AutoscalerConfig config = edge;
    mutate(config);
    return config.Validate().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.policy = "bogus"; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.policy = ""; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.min_tes = 0; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.max_tes = 2; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) {
    c.min_tes = 1;
    c.max_tes = 0;
  }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.check_interval = 0; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.check_interval = -1; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.headroom_tes = -1; }));
  EXPECT_TRUE(refused([](serving::AutoscalerConfig& c) { c.drain_timeout = -1; }));
}

// ---------------- State-machine replay through the real stack ----------------

class CtrlStackTest : public ::testing::Test {
 protected:
  CtrlStackTest()
      : cluster_(&sim_, MakeClusterConfig()),
        transfer_(&sim_, &cluster_, distflow::DistFlowConfig{}) {}

  static hw::ClusterConfig MakeClusterConfig() {
    hw::ClusterConfig config;
    config.num_machines = 3;
    return config;
  }

  sim::Simulator sim_;
  hw::Cluster cluster_;
  distflow::TransferEngine transfer_;
};

TEST_F(CtrlStackTest, TeDirectoryReplayMatchesLiveAfterScaleStopCrash) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);
  manager.ReservePrewarmedPods(2);
  manager.ReservePrewarmedTes(2);
  manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
  sim_.Run();

  auto* te_a = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  auto* te_b = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int ready = 0;
  ASSERT_TRUE(manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                           const serving::ScalingBreakdown&) {
                       if (te != nullptr) ++ready;
                     })
                  .ok());
  sim_.Run();
  EXPECT_EQ(ready, 1);
  ASSERT_TRUE(manager.StopTe(te_a->id()).ok());
  ASSERT_TRUE(manager.CrashTe(te_b->id(), serving::CrashKind::kNpu).ok());
  sim_.Run();  // heartbeat detection lands

  ctrl::TeDirectory standby(manager.directory().domain());
  manager.ctrl_log()->ReplayInto(&standby);
  EXPECT_EQ(standby.Fingerprint(), manager.directory().Fingerprint());
  EXPECT_EQ(standby.applied(), manager.directory().applied());
  EXPECT_EQ(standby.npus_in_use(), manager.directory().npus_in_use());
}

TEST_F(CtrlStackTest, JobTableReplayMatchesLiveAfterTraffic) {
  ctrl::ControlLog log(&sim_);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  je.AttachControl(&log, &manager);
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());

  int completed = 0;
  for (int i = 1; i <= 6; ++i) {
    sim_.ScheduleAt(MsToNs(50 * i), [&, i] {
      workload::RequestSpec spec = MakeRequest(i, 128, 16);
      spec.context_id = "ctx-" + std::to_string(i);
      je.HandleRequest(spec,
                       {nullptr, [&](const flowserve::Sequence&) { ++completed; }, nullptr});
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 6);
  // Every job terminated, so each kJobCreated record is down to its header:
  // the log's payload is bounded by outstanding jobs, not requests served.
  EXPECT_EQ(CreatedPayload(log, je.table().domain()), 0);

  ctrl::JobTable standby(je.table().domain());
  log.ReplayInto(&standby);
  EXPECT_EQ(standby.Fingerprint(), je.table().Fingerprint());
  EXPECT_EQ(standby.applied(), je.table().applied());
  EXPECT_EQ(standby.next_job(), je.table().next_job());
  EXPECT_TRUE(standby.outstanding().empty());
}

// ---------------- Pipeline abort: crash during provisioning ----------------

TEST_F(CtrlStackTest, KillTeMidPipelineAbortsWithoutReadyCallback) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);  // cold: no pools
  const int64_t npus_before = manager.directory().npus_in_use();

  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int callbacks = 0;
  serving::TaskExecutor* delivered = reinterpret_cast<serving::TaskExecutor*>(0x1);
  auto id = manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                         const serving::ScalingBreakdown&) {
    ++callbacks;
    delivered = te;
  });
  ASSERT_TRUE(id.ok());
  EXPECT_GT(manager.directory().npus_in_use(), npus_before);
  EXPECT_EQ(manager.directory().open_pipelines().size(), 1u);

  sim_.RunUntil(SToNs(5));  // mid Scaler-Pre (cold pod creation is 12s)
  auto dropped = manager.KillTe(id.value());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 0u);  // a provisioning TE holds no requests
  sim_.Run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(delivered, nullptr);
  EXPECT_EQ(manager.stats().scale_aborts, 1);
  EXPECT_EQ(manager.stats().crashes, 1);
  EXPECT_EQ(manager.stats().te_failures, 0);  // never a serving TE
  EXPECT_EQ(manager.stats().replacements, 0);
  EXPECT_EQ(manager.stats().mttr_count, 0);
  EXPECT_EQ(manager.directory().npus_in_use(), npus_before);  // NPUs conserved
  EXPECT_TRUE(manager.directory().open_pipelines().empty());
  EXPECT_EQ(manager.te(id.value()), nullptr);  // no live binding ever made
  EXPECT_TRUE(manager.tes().empty());
  const auto* meta = manager.directory().Find(id.value());
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->lifecycle, ctrl::TeDirectory::Lifecycle::kAborted);
}

TEST_F(CtrlStackTest, CrashTeMidPipelineAbortsLikeKill) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int callbacks = 0;
  serving::TaskExecutor* delivered = reinterpret_cast<serving::TaskExecutor*>(0x1);
  auto id = manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                         const serving::ScalingBreakdown&) {
    ++callbacks;
    delivered = te;
  });
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(SToNs(20));  // mid TE-Pre-Load
  auto dropped = manager.CrashTe(id.value(), serving::CrashKind::kTeShell);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped.value(), 0u);
  sim_.Run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(delivered, nullptr);
  EXPECT_EQ(manager.stats().scale_aborts, 1);
  EXPECT_EQ(manager.stats().scale_ups, 1);  // launched, not delivered
  EXPECT_EQ(manager.directory().npus_in_use(), 0);
  // Double-kill of the aborted id is rejected.
  EXPECT_FALSE(manager.KillTe(id.value()).ok());
}

// ---------------- CM leader failover ----------------

TEST_F(CtrlStackTest, CmFailoverResumesParkedPipelineExactlyOnce) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = SToNs(10);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);

  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int callbacks = 0;
  serving::TaskExecutor* delivered = nullptr;
  ASSERT_TRUE(manager.ScaleUp(request, [&](serving::TaskExecutor* te,
                                           const serving::ScalingBreakdown&) {
                       ++callbacks;
                       delivered = te;
                     })
                  .ok());

  // Crash the leader mid Scaler-Pre; the 12s stage boundary lands inside the
  // ~10s outage and must park rather than advance.
  sim_.RunUntil(SToNs(5));
  ASSERT_TRUE(manager.CrashControlLeader().ok());
  EXPECT_FALSE(manager.leader_up());
  EXPECT_FALSE(manager.CrashControlLeader().ok());  // already down
  auto during_outage = manager.ScaleUp(request, [](serving::TaskExecutor*,
                                                   const serving::ScalingBreakdown&) {});
  EXPECT_EQ(during_outage.status().code(), StatusCode::kUnavailable);

  sim_.Run();
  EXPECT_TRUE(manager.leader_up());
  EXPECT_EQ(manager.control_epoch(), 1);
  EXPECT_EQ(manager.stats().cm_crashes, 1);
  EXPECT_EQ(manager.stats().cm_failovers, 1);
  EXPECT_GE(manager.stats().deferred_ops, 1);
  EXPECT_GT(manager.stats().cm_outage_total, 0);
  // The pipeline delivered exactly one ready TE — no drop, no double-fire.
  EXPECT_EQ(callbacks, 1);
  ASSERT_NE(delivered, nullptr);
  EXPECT_TRUE(delivered->ready());
  EXPECT_EQ(manager.stats().scale_ups, 1);
  EXPECT_EQ(manager.tes().size(), 1u);
  EXPECT_TRUE(manager.directory().open_pipelines().empty());
}

TEST_F(CtrlStackTest, TeCrashDuringCmOutageDetectedAtTakeover) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = SToNs(2);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  manager.ReservePrewarmedPods(2);
  manager.ReservePrewarmedTes(2);
  manager.PreloadModelToDram(0, model::ModelSpec::Tiny1B());
  sim_.Run();

  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  std::vector<serving::TeId> failed_tes;
  manager.AddFailureHandler([&](serving::TeId id) {
    failed_tes.push_back(id);
    je.OnTeFailure(id);
  });
  serving::ScaleRequest replacement;
  replacement.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.SetReplacementPolicy(replacement,
                               [&](serving::TaskExecutor* te) { je.AddColocatedTe(te); });

  auto* te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  je.AddColocatedTe(te);
  const serving::TeId victim = te->id();

  sim_.RunUntil(SToNs(1));
  ASSERT_TRUE(manager.CrashControlLeader().ok());
  // The TE dies while no leader is listening: the data plane loses it now,
  // but the report sits in the pod-runtime backlog until takeover.
  auto dropped = manager.CrashTe(victim, serving::CrashKind::kTeShell);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(manager.stats().detections, 0);
  EXPECT_TRUE(failed_tes.empty());

  sim_.Run();
  EXPECT_TRUE(manager.leader_up());
  EXPECT_EQ(manager.stats().detections, 1);
  ASSERT_EQ(failed_tes.size(), 1u);
  EXPECT_EQ(failed_tes[0], victim);
  EXPECT_EQ(manager.stats().replacements, 1);
  EXPECT_EQ(manager.stats().mttr_count, 1);
  // MTTR spans crash -> replacement ready, so it covers the outage remainder.
  EXPECT_GT(manager.stats().mttr_total, 0);
  EXPECT_EQ(je.colocated_count(), 1u);  // replacement joined the group
}

TEST_F(CtrlStackTest, SingleReplicaOutageIsPermanentUntilManualRecovery) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);  // degenerate log
  auto* te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  ASSERT_NE(te, nullptr);

  ASSERT_TRUE(manager.CrashControlLeader().ok());
  sim_.RunUntil(SToNs(60));
  EXPECT_FALSE(manager.leader_up());  // no standby: nobody takes over
  EXPECT_EQ(manager.stats().cm_failovers, 0);
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  EXPECT_EQ(manager.ScaleUp(request, [](serving::TaskExecutor*,
                                        const serving::ScalingBreakdown&) {})
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(manager.StopTe(te->id()).ok());

  ASSERT_TRUE(manager.RecoverControlLeader().ok());
  EXPECT_TRUE(manager.leader_up());
  EXPECT_EQ(manager.control_epoch(), 1);
  EXPECT_TRUE(manager.StopTe(te->id()).ok());
}

// ---------------- JE leader failover ----------------

TEST_F(CtrlStackTest, JeFailoverLosesNoRequestsAndFiresHandlersExactlyOnce) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = MsToNs(100);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  je.AttachControl(&log, &manager);
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());

  constexpr int kRequests = 12;
  std::map<workload::RequestId, int> terminations;
  int completed = 0, errored = 0;
  for (int i = 1; i <= kRequests; ++i) {
    sim_.ScheduleAt(MsToNs(100 * (i - 1)), [&, i] {
      je.HandleRequest(MakeRequest(i, 256, 32),
                       {nullptr,
                        [&, i](const flowserve::Sequence&) {
                          ++completed;
                          ++terminations[i];
                        },
                        [&, i](const Status&) {
                          ++errored;
                          ++terminations[i];
                        }});
    });
  }
  // Crash mid-stream: some requests in flight (their completions must park),
  // some yet to arrive (they must buffer, then dispatch at takeover).
  sim_.ScheduleAt(MsToNs(650), [&] {
    ASSERT_TRUE(je.CrashLeader().ok());
    EXPECT_FALSE(je.leader_up());
    EXPECT_EQ(je.ReadyCapacityWeight(), 0);
    EXPECT_FALSE(je.CrashLeader().ok());  // already down
  });
  sim_.Run();

  EXPECT_TRUE(je.leader_up());
  EXPECT_EQ(je.control_epoch(), 1);
  EXPECT_EQ(je.stats().je_crashes, 1);
  EXPECT_EQ(je.stats().je_failovers, 1);
  EXPECT_GT(je.stats().je_outage_total, 0);
  EXPECT_GE(je.stats().queued_arrivals, 1);
  // Zero token loss: every request terminated, each exactly once, none failed.
  EXPECT_EQ(completed, kRequests);
  EXPECT_EQ(errored, 0);
  ASSERT_EQ(terminations.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : terminations) {
    EXPECT_EQ(count, 1) << "request " << id << " terminated " << count << " times";
  }
  EXPECT_TRUE(je.table().outstanding().empty());
}

TEST_F(CtrlStackTest, JeCrashMidFlightReplaysOutstandingPromptsFromLog) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = SToNs(1);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  je.AttachControl(&log, &manager);
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());

  // The first requests are short and finish before the crash; the rest are
  // long, still in flight when it lands, and finish during the outage (their
  // completions park until the standby takes over).
  constexpr int kRequests = 8;
  std::map<workload::RequestId, workload::RequestSpec> sent;
  std::map<workload::RequestId, int> terminations;
  int completed = 0, errored = 0;
  for (int i = 1; i <= kRequests; ++i) {
    workload::RequestSpec spec =
        MakeRequest(i, 160 + 16 * i, i <= 3 ? 4 : 256, static_cast<TokenId>(1000 * i));
    spec.context_id = "ctx-" + std::to_string(i);
    sent[spec.id] = spec;
    sim_.ScheduleAt(MsToNs(20 * i), [&, spec] {
      je.HandleRequest(spec, {nullptr,
                              [&, id = spec.id](const flowserve::Sequence&) {
                                ++completed;
                                ++terminations[id];
                              },
                              [&, id = spec.id](const Status&) {
                                ++errored;
                                ++terminations[id];
                              }});
    });
  }
  size_t closed_at_crash = 0;
  size_t in_flight_at_crash = 0;
  sim_.ScheduleAt(MsToNs(20 * kRequests + 50), [&] {
    ASSERT_TRUE(je.CrashLeader().ok());
    // What a standby rebuilds from the log: every outstanding job with its
    // full prompt and context id, while the jobs closed before the crash
    // left only their headers behind.
    ctrl::JobTable standby(je.table().domain());
    log.ReplayInto(&standby);
    EXPECT_EQ(standby.Fingerprint(), je.table().Fingerprint());
    in_flight_at_crash = standby.outstanding().size();
    closed_at_crash = standby.next_job() - 1 - in_flight_at_crash;
    int64_t outstanding_payload = 0;
    for (const auto& [job_id, outstanding] : standby.outstanding()) {
      const workload::RequestSpec& want = sent.at(outstanding.spec.id);
      EXPECT_EQ(outstanding.spec.prompt, want.prompt) << "job " << job_id;
      // Replay shares the logged prompt; nothing on the way copied its tokens.
      EXPECT_TRUE(outstanding.spec.prompt.SharesStorage(want.prompt)) << "job " << job_id;
      EXPECT_EQ(outstanding.spec.context_id, want.context_id) << "job " << job_id;
      outstanding_payload += static_cast<int64_t>(want.prompt.size() + want.context_id.size());
    }
    EXPECT_EQ(CreatedPayload(log, je.table().domain()), outstanding_payload);
  });
  sim_.Run();

  ASSERT_GT(closed_at_crash, 0u);
  ASSERT_GT(in_flight_at_crash, 0u);
  EXPECT_EQ(je.stats().je_failovers, 1);
  EXPECT_GE(je.stats().deferred_ops, 1);
  EXPECT_EQ(completed, kRequests);
  EXPECT_EQ(errored, 0);
  ASSERT_EQ(terminations.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : terminations) {
    EXPECT_EQ(count, 1) << "request " << id << " terminated " << count << " times";
  }
  EXPECT_TRUE(je.table().outstanding().empty());
  EXPECT_EQ(CreatedPayload(log, je.table().domain()), 0);
}

TEST_F(CtrlStackTest, TeDeathDuringJeOutageReconciledAtTakeover) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = MsToNs(200);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  je.AttachControl(&log, &manager);
  auto* te_a = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  auto* te_b = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  je.AddColocatedTe(te_a);
  je.AddColocatedTe(te_b);

  constexpr int kRequests = 6;
  std::map<workload::RequestId, int> terminations;
  int completed = 0, errored = 0;
  for (int i = 1; i <= kRequests; ++i) {
    sim_.ScheduleAt(MsToNs(80 * i), [&, i] {
      je.HandleRequest(MakeRequest(i, 512, 128),
                       {nullptr,
                        [&, i](const flowserve::Sequence&) {
                          ++completed;
                          ++terminations[i];
                        },
                        [&, i](const Status&) {
                          ++errored;
                          ++terminations[i];
                        }});
    });
  }
  sim_.ScheduleAt(MsToNs(550), [&] { ASSERT_TRUE(je.CrashLeader().ok()); });
  // The CM leader is alive and kills the TE immediately; the JE's handler
  // (registered by AttachControl) parks the failure until its own takeover.
  sim_.ScheduleAt(MsToNs(600),
                  [&] { ASSERT_TRUE(manager.KillTe(te_a->id()).ok()); });
  sim_.Run();

  EXPECT_TRUE(je.leader_up());
  EXPECT_EQ(je.stats().je_failovers, 1);
  EXPECT_EQ(je.stats().failed_tes_handled, 1);
  EXPECT_EQ(je.colocated_count(), 1u);  // the dead TE left the group
  // Every request terminated exactly once; lost jobs were re-dispatched to
  // the survivor rather than erroring.
  EXPECT_EQ(completed + errored, kRequests);
  ASSERT_EQ(terminations.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : terminations) {
    EXPECT_EQ(count, 1) << "request " << id << " terminated " << count << " times";
  }
  EXPECT_EQ(completed, kRequests);
  EXPECT_TRUE(je.table().outstanding().empty());
}

// Pins which TE callbacks a JE leader outage parks. A colocated first token
// reaches the caller during the outage; a PD first token (it closes the
// prefill task in the log) and every completion wait for the standby.
TEST_F(CtrlStackTest, JeOutageParksPdFirstTokenAndCompletionsButNotColocatedFirstToken) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = SToNs(1);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  serving::JeConfig je_config;
  // Load-only sends the first request colocated (all pools idle) and the
  // second to the idle prefill/decode pair (the colocated TE is busy).
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  je.AttachControl(&log, &manager);
  auto* prefill = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kPrefillOnly)).value();
  auto* decode = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kDecodeOnly)).value();
  je.AddColocatedTe(manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value());
  je.AddPrefillTe(prefill);
  je.AddDecodeTe(decode);
  ASSERT_TRUE(transfer_.LinkCluster({prefill->id(), decode->id()}, nullptr).ok());
  sim_.Run();

  // Per request: whether the leader was up at first token and at completion.
  struct Seen {
    int first_tokens = 0;
    int terminations = 0;
    bool first_token_leader_up = false;
    bool complete_leader_up = false;
  };
  std::map<workload::RequestId, Seen> seen;
  auto send = [&](workload::RequestId id, TokenId base) {
    je.HandleRequest(MakeRequest(id, 128, 8, base),
                     {[&, id](const flowserve::Sequence&) {
                        ++seen[id].first_tokens;
                        seen[id].first_token_leader_up = je.leader_up();
                      },
                      [&, id](const flowserve::Sequence&) {
                        ++seen[id].terminations;
                        seen[id].complete_leader_up = je.leader_up();
                      },
                      [&, id](const Status&) { ++seen[id].terminations; }});
  };
  const TimeNs t0 = sim_.Now();
  sim_.ScheduleAt(t0, [&] {
    send(1, 100);
    send(2, 9000);
    ASSERT_TRUE(je.CrashLeader().ok());
  });
  sim_.Run();

  EXPECT_EQ(je.stats().routed_colocated, 1);
  EXPECT_EQ(je.stats().routed_disaggregated, 1);
  EXPECT_EQ(je.stats().je_failovers, 1);
  // Parked: the PD first token, the PD completion and the colocated one.
  EXPECT_EQ(je.stats().deferred_ops, 3);
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [id, s] : seen) {
    EXPECT_EQ(s.first_tokens, 1) << "request " << id;
    EXPECT_EQ(s.terminations, 1) << "request " << id;
    EXPECT_TRUE(s.complete_leader_up) << "request " << id;
  }
  EXPECT_FALSE(seen[1].first_token_leader_up);  // colocated: straight to the caller
  EXPECT_TRUE(seen[2].first_token_leader_up);   // PD: parked until takeover
  EXPECT_TRUE(je.table().outstanding().empty());
}

TEST_F(CtrlStackTest, SingleReplicaJeCrashFailsOutstandingAndRejectsArrivals) {
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_);
  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim_, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());  // owned degenerate log
  auto* te = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  je.AddColocatedTe(te);

  int completed = 0;
  std::vector<StatusCode> errors;
  for (int i = 1; i <= 3; ++i) {
    je.HandleRequest(MakeRequest(i, 1024, 256),
                     {nullptr, [&](const flowserve::Sequence&) { ++completed; },
                      [&](const Status& status) { errors.push_back(status.code()); }});
  }
  sim_.RunUntil(MsToNs(300));  // all in flight
  ASSERT_TRUE(je.CrashLeader().ok());
  EXPECT_FALSE(je.leader_up());
  // No standby: every outstanding job severed immediately, engine side too.
  ASSERT_EQ(errors.size(), 3u);
  for (StatusCode code : errors) EXPECT_EQ(code, StatusCode::kUnavailable);
  EXPECT_TRUE(je.table().outstanding().empty());

  // Subsequent arrivals are rejected synchronously.
  je.HandleRequest(MakeRequest(9, 64, 8),
                   {nullptr, [&](const flowserve::Sequence&) { ++completed; },
                    [&](const Status& status) { errors.push_back(status.code()); }});
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors.back(), StatusCode::kUnavailable);

  sim_.Run();
  EXPECT_EQ(completed, 0);
  EXPECT_TRUE(te->engine().idle());  // severed sequences were cancelled
  EXPECT_EQ(je.stats().je_crashes, 1);
  EXPECT_EQ(je.stats().je_failovers, 0);
  EXPECT_FALSE(je.leader_up());
}

// ---------------- One leader protocol, both owners ----------------

// The JE and the CM run the same ctrl::Leader. Each owner type below drives
// its leader through the owner's public API, so one test body covers both.
struct JeLeaderOwner {
  JeLeaderOwner(sim::Simulator* sim, hw::Cluster*, distflow::TransferEngine*,
                ctrl::ControlLog* log)
      : je(sim, serving::JeConfig{}, serving::PdHeatmap::Default(),
           serving::MakeOraclePredictor()) {
    je.AttachControl(log);
  }
  Status Crash() { return je.CrashLeader(); }
  Status Recover() { return je.RecoverLeader(); }
  bool up() const { return je.leader_up(); }
  int64_t epoch() const { return je.control_epoch(); }
  int64_t crashes() const { return je.stats().je_crashes; }
  int64_t failovers() const { return je.stats().je_failovers; }
  DurationNs outage_total() const { return je.stats().je_outage_total; }
  static obs::Counter* Crashes(obs::MetricsRegistry& m) { return m.counter("je.ctrl.crashes"); }
  static obs::Counter* Failovers(obs::MetricsRegistry& m) {
    return m.counter("je.ctrl.failovers");
  }
  static OnlineStats* OutageMs(obs::MetricsRegistry& m) { return m.stats("je.ctrl.outage_ms"); }
  serving::JobExecutor je;
};

struct CmLeaderOwner {
  CmLeaderOwner(sim::Simulator* sim, hw::Cluster* cluster, distflow::TransferEngine* transfer,
                ctrl::ControlLog* log)
      : manager(sim, cluster, transfer, {}, {}, log) {}
  Status Crash() { return manager.CrashControlLeader(); }
  Status Recover() { return manager.RecoverControlLeader(); }
  bool up() const { return manager.leader_up(); }
  int64_t epoch() const { return manager.control_epoch(); }
  int64_t crashes() const { return manager.stats().cm_crashes; }
  int64_t failovers() const { return manager.stats().cm_failovers; }
  DurationNs outage_total() const { return manager.stats().cm_outage_total; }
  static obs::Counter* Crashes(obs::MetricsRegistry& m) { return m.counter("cm.ctrl.crashes"); }
  static obs::Counter* Failovers(obs::MetricsRegistry& m) {
    return m.counter("cm.ctrl.failovers");
  }
  static OnlineStats* OutageMs(obs::MetricsRegistry& m) { return m.stats("cm.ctrl.outage_ms"); }
  serving::ClusterManager manager;
};

template <typename Owner>
class LeaderOwnerTest : public CtrlStackTest {
 protected:
  static ctrl::CtrlConfig Replicated() {
    ctrl::CtrlConfig config;
    config.replicas = 3;
    config.quorum = 2;
    config.replication_latency = MsToNs(1);
    config.lease_duration = SToNs(1);
    return config;
  }
};

using LeaderOwners = ::testing::Types<JeLeaderOwner, CmLeaderOwner>;
TYPED_TEST_SUITE(LeaderOwnerTest, LeaderOwners);

TYPED_TEST(LeaderOwnerTest, RecoverOnALiveLeaderIsAFailedPrecondition) {
  ctrl::ControlLog log(&this->sim_, this->Replicated());
  TypeParam owner(&this->sim_, &this->cluster_, &this->transfer_, &log);
  const size_t records = log.records().size();
  EXPECT_EQ(owner.Recover().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(owner.up());
  EXPECT_EQ(owner.epoch(), 0);
  EXPECT_EQ(owner.failovers(), 0);
  EXPECT_EQ(log.records().size(), records);  // no epoch record

  ASSERT_TRUE(owner.Crash().ok());
  ASSERT_TRUE(owner.Recover().ok());
  EXPECT_EQ(owner.Recover().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(owner.epoch(), 1);
  EXPECT_EQ(owner.failovers(), 1);
}

// Crash, recover by hand inside the failover delay, crash again before the
// first crash's takeover timer fires. That timer finds the leader down but
// the epoch moved on, so it does nothing; the one automatic takeover lands
// at the second crash plus its own FailoverDelay.
TYPED_TEST(LeaderOwnerTest, StaleTakeoverTimerIsInert) {
  obs::MetricsRegistry metrics;
  this->sim_.SetMetrics(&metrics);
  ctrl::ControlLog log(&this->sim_, this->Replicated());
  TypeParam owner(&this->sim_, &this->cluster_, &this->transfer_, &log);

  const TimeNs t0 = this->sim_.Now();
  ASSERT_TRUE(owner.Crash().ok());
  const DurationNs first_delay = log.FailoverDelay(t0);
  const DurationNs manual_gap = MsToNs(200);
  this->sim_.RunUntil(t0 + manual_gap);
  ASSERT_FALSE(owner.up());
  ASSERT_TRUE(owner.Recover().ok());
  EXPECT_EQ(owner.epoch(), 1);

  this->sim_.RunUntil(t0 + MsToNs(400));
  const TimeNs t1 = this->sim_.Now();
  ASSERT_TRUE(owner.Crash().ok());
  const DurationNs second_delay = log.FailoverDelay(t1);
  ASSERT_LT(t0 + first_delay, t1 + second_delay);

  // Past the first timer, short of the second: still down, nothing taken over.
  this->sim_.RunUntil(t1 + second_delay - 1);
  EXPECT_FALSE(owner.up());
  EXPECT_EQ(owner.epoch(), 1);
  EXPECT_EQ(owner.failovers(), 1);

  this->sim_.Run();
  EXPECT_TRUE(owner.up());
  EXPECT_EQ(owner.epoch(), 2);
  EXPECT_EQ(owner.crashes(), 2);
  EXPECT_EQ(owner.failovers(), 2);
  EXPECT_EQ(owner.outage_total(), manual_gap + second_delay);
  // Both owners report the same control-plane metrics through the leader.
  EXPECT_EQ(TypeParam::Crashes(metrics)->value(), 2);
  EXPECT_EQ(TypeParam::Failovers(metrics)->value(), 2);
  EXPECT_EQ(TypeParam::OutageMs(metrics)->count(), 2u);
  EXPECT_DOUBLE_EQ(TypeParam::OutageMs(metrics)->sum(),
                   NsToMs(manual_gap) + NsToMs(second_delay));
}

// ---------------- Control-log stream pin ----------------

// FNV-1a over every record's (domain, type, time, ints) as the log holds
// them at the end of the run, i.e. after terminated jobs' payload drops.
uint64_t LogStreamHash(const ctrl::ControlLog& log) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  mix(log.records().size());
  for (const ctrl::LogRecord& record : log.records()) {
    mix(static_cast<uint64_t>(record.domain));
    mix(static_cast<uint64_t>(record.type));
    mix(static_cast<uint64_t>(record.time));
    mix(record.ints.size());
    for (int64_t v : record.ints) {
      mix(static_cast<uint64_t>(v));
    }
  }
  return hash;
}

// One mixed run on a 3-replica log: colocated and 1P1D TEs, a ScaleUp and a
// ScaleUpMany, a TE crash whose jobs re-dispatch, then a JE and a CM leader
// crash, each failing over. The hash pins the append order of both domains'
// records, which no other test does.
TEST_F(CtrlStackTest, MixedRunLogStreamIsPinned) {
  ctrl::CtrlConfig config;
  config.replicas = 3;
  config.quorum = 2;
  config.replication_latency = MsToNs(1);
  config.lease_duration = MsToNs(100);
  ctrl::ControlLog log(&sim_, config);
  serving::ClusterManager manager(&sim_, &cluster_, &transfer_, {}, {}, &log);
  manager.ReservePrewarmedPods(4);
  manager.ReservePrewarmedTes(4);
  for (int m = 0; m < cluster_.num_machines(); ++m) {
    manager.PreloadModelToDram(m, model::ModelSpec::Tiny1B());
  }
  sim_.Run();

  serving::JobExecutor je(&sim_, serving::JeConfig{}, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  je.AttachControl(&log, &manager);
  auto* coloc_a = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  auto* coloc_b = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  auto* prefill = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kPrefillOnly)).value();
  auto* decode = manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kDecodeOnly)).value();
  je.AddColocatedTe(coloc_a);
  je.AddColocatedTe(coloc_b);
  je.AddPrefillTe(prefill);
  je.AddDecodeTe(decode);
  ASSERT_TRUE(transfer_.LinkCluster({prefill->id(), decode->id()}, nullptr).ok());
  sim_.Run();
  const TimeNs t0 = sim_.Now();

  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  int scaled = 0;
  ASSERT_TRUE(manager
                  .ScaleUp(request,
                           [&](serving::TaskExecutor* te, const serving::ScalingBreakdown&) {
                             ASSERT_NE(te, nullptr);
                             ++scaled;
                             je.AddColocatedTe(te);
                           })
                  .ok());
  request.fork_source = coloc_b->id();
  ASSERT_TRUE(manager
                  .ScaleUpMany(request, 2,
                               [&](std::vector<serving::TaskExecutor*> tes, DurationNs) {
                                 for (serving::TaskExecutor* te : tes) {
                                   ++scaled;
                                   je.AddColocatedTe(te);
                                 }
                               })
                  .ok());

  // Short prompts route colocated, long-prefill/short-decode ones to the pair.
  constexpr int kRequests = 40;
  std::map<workload::RequestId, int> terminations;
  for (int i = 1; i <= kRequests; ++i) {
    const bool long_prefill = i % 3 == 0;
    workload::RequestSpec spec = MakeRequest(i, long_prefill ? 3072 : 192 + 8 * i,
                                             long_prefill ? 8 : 96, static_cast<TokenId>(500 * i));
    spec.context_id = "ctx-" + std::to_string(i);
    sim_.ScheduleAt(t0 + MsToNs(60 * i), [&, spec] {
      je.HandleRequest(spec, {nullptr,
                              [&, id = spec.id](const flowserve::Sequence&) { ++terminations[id]; },
                              [&, id = spec.id](const Status&) { ++terminations[id]; }});
    });
  }
  sim_.ScheduleAt(t0 + MsToNs(400), [&] {
    ASSERT_TRUE(manager.CrashTe(coloc_a->id(), serving::CrashKind::kTeShell).ok());
  });
  sim_.ScheduleAt(t0 + MsToNs(900), [&] { ASSERT_TRUE(je.CrashLeader().ok()); });
  sim_.ScheduleAt(t0 + MsToNs(1500), [&] { ASSERT_TRUE(manager.CrashControlLeader().ok()); });
  sim_.Run();

  EXPECT_EQ(scaled, 3);
  EXPECT_GE(je.stats().retries, 1);
  EXPECT_GE(je.stats().routed_disaggregated, 1);
  EXPECT_EQ(je.stats().je_failovers, 1);
  EXPECT_EQ(manager.stats().cm_failovers, 1);
  ASSERT_EQ(terminations.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, count] : terminations) {
    EXPECT_EQ(count, 1) << "request " << id << " terminated " << count << " times";
  }
  EXPECT_TRUE(je.table().outstanding().empty());
  EXPECT_EQ(LogStreamHash(log), 0xcccf9e14d894cdefull);
}

// ---------------- Golden parity: degenerate log == pre-log tree ----------------

struct GoldenRow {
  uint64_t seed;
  int64_t completed;
  int64_t errored;
  int64_t crashes;
  int64_t replacements;
  int64_t scale_ups;
  int64_t scale_downs;
  int64_t end_time;
  uint64_t timeline_hash;
  uint64_t metrics_fp;
};

// Captured from the pre-refactor tree (before control-plane state moved onto
// the log) by running this exact scenario. The degenerate single-replica
// zero-latency log MUST reproduce these bit-for-bit: any event-stream drift
// in the refactor shows up as a hash mismatch here.
constexpr GoldenRow kGolden[] = {
    {11ull, 58, 0, 2, 2, 6, 6, 40560063275ll, 0xfddb339fbba5727cull, 0xb344e94c032cf0d1ull},
    {23ull, 68, 0, 1, 1, 3, 3, 40560063275ll, 0x662823d88727037bull, 0xeb2254c033da04c5ull},
    {47ull, 63, 0, 3, 3, 8, 4, 46062566707ll, 0x4d6ea56212654424ull, 0xff986b5e5a6e85dbull},
};

GoldenRow RunGoldenStack(uint64_t seed) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  sim.SetMetrics(&metrics);
  hw::ClusterConfig cluster_config;
  cluster_config.num_machines = 3;
  hw::Cluster cluster(&sim, cluster_config);
  distflow::TransferEngine transfer(&sim, &cluster, distflow::DistFlowConfig{});
  serving::ClusterManager manager(&sim, &cluster, &transfer);
  manager.ReservePrewarmedPods(6);
  manager.ReservePrewarmedTes(6);
  for (int m = 0; m < cluster.num_machines(); ++m) {
    manager.PreloadModelToDram(m, model::ModelSpec::Tiny1B());
  }
  sim.Run();

  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kLoadOnly;
  serving::JobExecutor je(&sim, je_config, serving::PdHeatmap::Default(),
                          serving::MakeOraclePredictor());
  manager.AddFailureHandler([&](serving::TeId id) { je.OnTeFailure(id); });
  serving::ScaleRequest replacement;
  replacement.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.SetReplacementPolicy(replacement,
                               [&](serving::TaskExecutor* te) { je.AddColocatedTe(te); });

  std::vector<distflow::EndpointId> endpoints;
  auto* colocated =
      manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kColocated)).value();
  je.AddColocatedTe(colocated);
  endpoints.push_back(colocated->id());
  auto* prefill =
      manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kPrefillOnly)).value();
  je.AddPrefillTe(prefill);
  endpoints.push_back(prefill->id());
  auto* decode =
      manager.CreateReadyTe(SmallEngine(flowserve::EngineRole::kDecodeOnly)).value();
  je.AddDecodeTe(decode);
  endpoints.push_back(decode->id());
  EXPECT_TRUE(transfer.LinkCluster(endpoints, nullptr).ok());
  sim.Run();

  serving::AutoscalerConfig as;
  as.policy = "predictive";
  as.check_interval = MsToNs(500);
  as.scale_up_queue_depth = 4;
  as.scale_down_queue_depth = 1;
  as.min_tes = 1;
  as.max_tes = 3;
  as.te_capacity_rps = 2.0;
  as.down_stable_ticks = 3;
  serving::ScaleRequest request;
  request.engine = SmallEngine(flowserve::EngineRole::kColocated);
  manager.StartAutoscaler(&je, as, request);

  faults::FaultInjector injector(&sim, &manager, seed);
  faults::FaultPlanConfig plan;
  plan.count = 5;
  plan.window_start = SToNs(2);
  plan.window_end = SToNs(25);
  injector.ScheduleAll(faults::FaultInjector::GeneratePlan(seed, plan));

  auto trace_config = workload::TraceGenerator::InternalTrace(2.0, 30.0, seed);
  trace_config.prefill = workload::LengthDistribution{512, 0.3, 64, 2048};
  trace_config.decode = workload::LengthDistribution{64, 0.4, 8, 256};
  auto trace =
      workload::TraceGenerator(trace_config).GenerateBursty(0.5, 6.0, 12.0, /*sharpness=*/3.0);
  const TimeNs t0 = sim.Now();

  GoldenRow row{};
  row.seed = seed;
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (auto& spec : trace) {
    spec.arrival += t0;
    sim.ScheduleAt(spec.arrival, [&, spec] {
      je.HandleRequest(spec, {nullptr,
                              [&, id = spec.id](const flowserve::Sequence& seq) {
                                ++row.completed;
                                mix(id);
                                mix(static_cast<uint64_t>(seq.first_token_time));
                                mix(static_cast<uint64_t>(seq.finish_time));
                              },
                              [&, id = spec.id](const Status&) {
                                ++row.errored;
                                mix(id * 2 + 1);
                              }});
    });
  }
  sim.RunUntil(t0 + SToNs(40));
  manager.StopAutoscaler();
  sim.Run();

  row.crashes = manager.stats().crashes;
  row.replacements = manager.stats().replacements;
  row.scale_ups = manager.stats().scale_ups;
  row.scale_downs = manager.stats().scale_downs;
  row.end_time = sim.Now();
  row.timeline_hash = hash;
  row.metrics_fp = metrics.Fingerprint();
  return row;
}

TEST(CtrlParityTest, DegenerateLogMatchesPreLogGoldensAcrossThreeSeeds) {
  for (const GoldenRow& want : kGolden) {
    const GoldenRow got = RunGoldenStack(want.seed);
    EXPECT_EQ(got.completed, want.completed) << "seed " << want.seed;
    EXPECT_EQ(got.errored, want.errored) << "seed " << want.seed;
    EXPECT_EQ(got.crashes, want.crashes) << "seed " << want.seed;
    EXPECT_EQ(got.replacements, want.replacements) << "seed " << want.seed;
    EXPECT_EQ(got.scale_ups, want.scale_ups) << "seed " << want.seed;
    EXPECT_EQ(got.scale_downs, want.scale_downs) << "seed " << want.seed;
    EXPECT_EQ(got.end_time, want.end_time) << "seed " << want.seed;
    EXPECT_EQ(got.timeline_hash, want.timeline_hash) << "seed " << want.seed;
    EXPECT_EQ(got.metrics_fp, want.metrics_fp) << "seed " << want.seed;
  }
}

}  // namespace
}  // namespace deepserve
