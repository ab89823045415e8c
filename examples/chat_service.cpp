// A multi-tenant chat service on the full DeepServe platform: cluster, Job
// Executor with the combined scheduling policy (Algorithm 1), a mixed fleet
// of PD-colocated TEs and a PD-disaggregated pair, and an online trace.
// Prints the request/job/task ledger and fleet-level statistics.

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "ctrl/job_table.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "serving/cluster_manager.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"

using namespace deepserve;

int main() {
  sim::Simulator sim;
  hw::ClusterConfig cluster_config;
  cluster_config.num_machines = 4;
  hw::Cluster cluster(&sim, cluster_config);
  distflow::TransferEngine transfer(&sim, &cluster, {});
  serving::ClusterManager manager(&sim, &cluster, &transfer);

  serving::JeConfig je_config;
  je_config.policy = serving::SchedulingPolicy::kCombined;
  serving::JobExecutor je(&sim, je_config, serving::PdHeatmap::Default(),
                          serving::MakeNoisyPredictor(0.9, 42));

  flowserve::EngineConfig engine;
  engine.model = model::ModelSpec::Yi34B();
  engine.parallelism = {4, 1, 1};

  // Fleet: 2 colocated TEs + one 1P1D pair, DistFlow-linked.
  std::vector<distflow::EndpointId> endpoints;
  engine.role = flowserve::EngineRole::kColocated;
  for (int i = 0; i < 2; ++i) {
    auto te = manager.CreateReadyTe(engine).value();
    je.AddColocatedTe(te);
    endpoints.push_back(te->id());
  }
  engine.role = flowserve::EngineRole::kPrefillOnly;
  auto prefill_te = manager.CreateReadyTe(engine).value();
  je.AddPrefillTe(prefill_te);
  endpoints.push_back(prefill_te->id());
  engine.role = flowserve::EngineRole::kDecodeOnly;
  auto decode_te = manager.CreateReadyTe(engine).value();
  je.AddDecodeTe(decode_te);
  endpoints.push_back(decode_te->id());
  DS_CHECK_OK(transfer.LinkCluster(endpoints, nullptr));
  sim.Run();

  // 90 seconds of the code-generation trace (varied prompt/decode shapes, so
  // Algorithm 1 exercises both routes) at 1 request/second.
  auto trace = workload::TraceGenerator(workload::TraceGenerator::CodeGenTrace(1.0, 90.0))
                   .Generate();
  workload::MetricsCollector metrics;
  bench::TraceReplay replay(&sim, trace, bench::RecordInto(&metrics));
  replay.ScheduleOnto(&je);
  sim.Run();

  std::printf("chat service summary: %s\n\n", metrics.Summary().c_str());
  std::printf("scheduling: %lld requests -> %lld colocated, %lld disaggregated "
              "(%lld locality picks, %lld load picks, %lld prefix hits)\n",
              static_cast<long long>(je.stats().requests),
              static_cast<long long>(je.stats().routed_colocated),
              static_cast<long long>(je.stats().routed_disaggregated),
              static_cast<long long>(je.stats().locality_decisions),
              static_cast<long long>(je.stats().load_decisions),
              static_cast<long long>(je.stats().locality_hits));

  // The request-job-task ledger is the JE's control-log records: show the
  // first disaggregated job's tasks. A task completes at its kTaskCompleted
  // record, else (the decode task) at its job's close record.
  struct LedgerTask {
    uint64_t id;
    serving::TaskType type;
    int te;
    TimeNs dispatched;
    TimeNs completed;  // 0 = still open
  };
  uint64_t job = 0;  // the first job with a prefill task
  uint64_t request = 0;
  std::vector<LedgerTask> tasks;
  for (const ctrl::LogRecord& record : je.control_log().records()) {
    if (record.domain != je.table().domain()) {
      continue;
    }
    const std::vector<int64_t>& ints = record.ints;
    if (record.type == ctrl::JobTable::kJobCreated && job == 0) {
      request = static_cast<uint64_t>(ints[1]);
    } else if (record.type == ctrl::JobTable::kTaskCreated) {
      const auto type = static_cast<serving::TaskType>(ints[2]);
      if (job == 0 && type == serving::TaskType::kPrefill) {
        job = static_cast<uint64_t>(ints[1]);
      }
      if (static_cast<uint64_t>(ints[1]) == job) {
        tasks.push_back({static_cast<uint64_t>(ints[0]), type, static_cast<int>(ints[3]),
                         record.time, 0});
      }
    } else if (record.type == ctrl::JobTable::kTaskCompleted) {
      for (LedgerTask& task : tasks) {
        if (task.id == static_cast<uint64_t>(ints[0])) {
          task.completed = record.time;
        }
      }
    } else if ((record.type == ctrl::JobTable::kJobCompleted ||
                record.type == ctrl::JobTable::kJobFailed) &&
               job != 0 && static_cast<uint64_t>(ints[0]) == job) {
      for (LedgerTask& task : tasks) {
        if (task.completed == 0) {
          task.completed = record.time;
        }
      }
      break;
    }
  }
  if (job != 0) {
    std::printf("\njob %llu (request %llu) ran as two tasks:\n",
                static_cast<unsigned long long>(job), static_cast<unsigned long long>(request));
    for (const LedgerTask& task : tasks) {
      std::printf("  task %llu [%s] on TE %d: %.1f ms\n", static_cast<unsigned long long>(task.id),
                  std::string(serving::TaskTypeToString(task.type)).c_str(), task.te,
                  NsToMs(task.completed - task.dispatched));
    }
  }

  std::printf("\nper-TE load:\n");
  for (const auto& te : manager.tes()) {
    std::printf("  TE %d (%s): %lld requests, %lld steps, cache hit %.0f%%\n", te->id(),
                std::string(flowserve::EngineRoleToString(te->role())).c_str(),
                static_cast<long long>(te->engine().stats().submitted),
                static_cast<long long>(te->engine().stats().steps),
                100.0 * te->engine().rtc().stats().TokenHitRate());
  }
  std::printf("\nDistFlow: %lld transfers, %.2f GiB moved\n",
              static_cast<long long>(transfer.stats().transfers),
              BytesToGiB(transfer.stats().bytes_moved));
  return 0;
}
