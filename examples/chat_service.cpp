// A multi-tenant chat service on the full DeepServe platform: cluster, Job
// Executor with the combined scheduling policy (Algorithm 1), a mixed fleet
// of PD-colocated TEs and a PD-disaggregated pair, and an online trace.
// Prints the request/job/task ledger and fleet-level statistics.

#include <cstdio>

#include "bench/common.h"
#include "common/time_units.h"
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

  // The request-job-task ledger: show the first disaggregated job's tasks.
  for (const auto& job : je.jobs()) {
    if (job.tasks.size() == 2) {
      std::printf("\njob %llu (request %llu) ran as two tasks:\n",
                  static_cast<unsigned long long>(job.id),
                  static_cast<unsigned long long>(job.request));
      for (serving::TaskId task_id : job.tasks) {
        const auto& task = je.tasks()[task_id - 1];
        std::printf("  task %llu [%s] on TE %d: %.1f ms\n",
                    static_cast<unsigned long long>(task.id),
                    std::string(serving::TaskTypeToString(task.type)).c_str(), task.te,
                    NsToMs(task.completed - task.dispatched));
      }
      break;
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
