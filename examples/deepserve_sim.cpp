// deepserve_sim — command-line experiment runner.
//
// Builds a fleet on the simulated cluster, replays a synthetic trace through
// the Job Executor, and prints (or exports) the serving metrics. Everything
// is a flag, so new experiments need no recompilation:
//
//   deepserve_sim --model=yi-34b --tp=4 --colocated=2 --prefill-tes=1
//                 --decode-tes=1 --policy=combined --trace=internal
//                 --rps=1.0 --duration=60 --seed=42 --csv=/tmp/run.csv
//
// Engine scheduling policy (src/flowserve/sched/): --sched-policy=fcfs|slo|
// priority-preempt, --tbt-ms=<slo TBT budget>, --deadline-ms=<per-request
// completion deadline; expired/unmeetable requests are shed under slo>.
//
// Frontend traffic management (src/serving/route_policy.h): requests flow
// through a Frontend over --je-replicas JE replicas (each with its own copy
// of the --colocated/--prefill-tes/--decode-tes fleet). --lb-policy picks the
// routing policy (rr|p2c|wlc|slo), --hedge-ms arms straggler hedging,
// --retry-budget caps crash re-dispatches fleet-wide, and --outlier-errors /
// --outlier-base-s / --outlier-max-s configure outlier ejection. Run with
// --help for the full flag table.
//
// Replicated control plane (src/ctrl/): --ctrl-replicas=N puts the CM's TE
// directory and every JE's job table on a shared sequenced log with N
// replicas (--ctrl-latency-ms / --ctrl-lease-ms tune replication lag and the
// leader lease). The default (1) keeps the historical unreplicated control
// plane, bit-identical to builds without the flag.
//
// Observability: --trace-out=<path> (Chrome trace_event JSON),
// --trace-jsonl=<path> and --metrics-out=<path> write the run's trace and
// metrics dump; the printed report is byte-identical with or without them.
// An unknown flag is a usage error (exit 2), and so is a value no run can use:
// a tp below 1, a negative TE count, an unknown --sched-policy or --trace, a
// --predictor outside [0, 1], a control-log config that
// ctrl::CtrlConfig::Validate refuses, an autoscaler config that
// serving::AutoscalerConfig::Validate refuses, or a model that does not fit
// its NPUs.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/time_units.h"
#include "distflow/distflow.h"
#include "flowserve/sched/sched_policy.h"
#include "hw/cluster.h"
#include "serving/autoscaler.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/route_policy.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

struct Flags {
  std::string model = "yi-34b";
  int tp = 4;
  int colocated = 2;
  int prefill_tes = 0;
  int decode_tes = 0;
  int je_replicas = 1;  // JE replicas behind the frontend (fleet per replica)
  std::string policy = "combined";
  std::string sched_policy = "fcfs";  // engine policy: fcfs|slo|priority-preempt
  double tbt_ms = 0.0;                // slo TBT budget (0 = unbounded)
  double ttft_ms = 0.0;               // TTFT SLO budget, counted only (0 = off)
  double deadline_ms = 0.0;           // per-request deadline (0 = none)
  std::string trace = "internal";
  double rps = 1.0;
  double peak_rps = 0.0;  // bursty trace peak (0 = 4x rps)
  double period = 0.0;    // bursty trace period seconds (0 = duration / 3)
  double duration = 60.0;
  uint64_t seed = 42;
  double predictor_accuracy = 0.9;
  std::string csv;
  std::string gen = "gen2";
  // Heterogeneous cluster: "gen1:2,gen2:2" builds 2 Gen1 + 2 Gen2 machines
  // (machine order follows the mix) and turns on cost-aware placement +
  // dispatch. Empty = homogeneous --gen cluster, bit-identical to before.
  std::string npu_mix;
  double npu_cost_gen1 = 0.0;  // $/NPU-hour override (0 = preset)
  double npu_cost_gen2 = 0.0;
  bool hetero_blind = false;  // ignore generations when placing/dispatching
  bool superpod = false;      // add the UB fabric tier between HCCS and RoCE
  double ub_gbps = 196.0;
  int machines_per_superpod = 0;  // 0 = whole cluster is one SuperPod
  // Autoscaler: empty = off; reactive|predictive|slo runs replica 0's
  // colocated group between min 1 and --max-tes TEs over the trace.
  std::string scale_policy;
  int headroom = 1;
  int max_tes = 8;
  bench::RouteOptions route;  // --lb-policy / --hedge-ms / --retry-budget / --outlier-*
  bench::CtrlOptions ctrl;    // --ctrl-replicas / --ctrl-latency-ms / --ctrl-lease-ms
};

void ParseFlags(int argc, char** argv, Flags* flags, bench::ObsSession* obs) {
  bench::OptionRegistry registry;
  registry.Flag("model", &flags->model, "model preset (yi-34b, tiny-1b, ...)");
  registry.Flag("tp", &flags->tp, "tensor-parallel degree per TE");
  registry.Flag("colocated", &flags->colocated, "PD-colocated TEs per JE replica");
  registry.Flag("prefill-tes", &flags->prefill_tes, "prefill-only TEs per JE replica");
  registry.Flag("decode-tes", &flags->decode_tes, "decode-only TEs per JE replica");
  registry.Flag("je-replicas", &flags->je_replicas,
                "JE replicas behind the frontend, each with its own fleet");
  registry.Flag("policy", &flags->policy,
                "JE scheduling policy: rr|load|locality|pd-aware|combined");
  registry.Flag("sched-policy", &flags->sched_policy,
                "engine scheduling policy: fcfs|slo|priority-preempt");
  registry.Flag("tbt-ms", &flags->tbt_ms, "slo TBT budget (0 = unbounded)");
  registry.Flag("ttft-ms", &flags->ttft_ms, "TTFT SLO budget, counted only (0 = off)");
  registry.Flag("deadline-ms", &flags->deadline_ms, "per-request deadline (0 = none)");
  registry.Flag("trace", &flags->trace, "trace shape: internal|codegen|bursty");
  registry.Flag("rps", &flags->rps, "arrival rate (bursty: base rate)");
  registry.Flag("peak-rps", &flags->peak_rps, "bursty trace peak (0 = 4x rps)");
  registry.Flag("period", &flags->period, "bursty trace period seconds (0 = duration/3)");
  registry.Flag("duration", &flags->duration, "trace horizon in seconds");
  registry.Flag("seed", &flags->seed, "trace / predictor / p2c seed");
  registry.Flag("predictor", &flags->predictor_accuracy,
                "decode-length predictor accuracy (1.0 = oracle)");
  registry.Flag("csv", &flags->csv, "write per-request metrics CSV here");
  registry.Flag("gen", &flags->gen, "NPU generation: gen1|gen2");
  registry.Flag("npu-mix", &flags->npu_mix,
                "heterogeneous machine mix, e.g. gen1:2,gen2:2 (empty = homogeneous --gen)");
  registry.Flag("npu-cost-gen1", &flags->npu_cost_gen1,
                "Gen1 $/NPU-hour override (0 = preset)");
  registry.Flag("npu-cost-gen2", &flags->npu_cost_gen2,
                "Gen2 $/NPU-hour override (0 = preset)");
  registry.Flag("hetero-blind", &flags->hetero_blind,
                "generation-blind placement and dispatch (baseline)");
  registry.Flag("superpod", &flags->superpod, "enable the SuperPod UB fabric tier");
  registry.Flag("ub-gbps", &flags->ub_gbps, "UB fabric bandwidth in GB/s");
  registry.Flag("machines-per-superpod", &flags->machines_per_superpod,
                "SuperPod size in machines (0 = whole cluster)");
  registry.Flag("scale-policy", &flags->scale_policy,
                "autoscaler policy over replica 0 (empty = off): reactive|predictive|slo");
  registry.Flag("headroom", &flags->headroom, "autoscaler headroom TEs");
  registry.Flag("max-tes", &flags->max_tes, "autoscaler ceiling");
  flags->route.Register(registry);
  flags->ctrl.Register(registry);
  obs->Register(registry);
  registry.Parse(argc, argv);
}

Result<serving::SchedulingPolicy> ParsePolicy(const std::string& name) {
  static const std::map<std::string, serving::SchedulingPolicy> kPolicies = {
      {"rr", serving::SchedulingPolicy::kRoundRobin},
      {"load", serving::SchedulingPolicy::kLoadOnly},
      {"locality", serving::SchedulingPolicy::kLocalityOnly},
      {"pd-aware", serving::SchedulingPolicy::kPdAware},
      {"combined", serving::SchedulingPolicy::kCombined},
  };
  auto it = kPolicies.find(name);
  if (it == kPolicies.end()) {
    return InvalidArgumentError("unknown policy " + name +
                                " (rr|load|locality|pd-aware|combined)");
  }
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::ObsSession obs;
  ParseFlags(argc, argv, &flags, &obs);
  auto model = model::ModelSpec::Preset(flags.model);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 2;
  }
  auto policy = ParsePolicy(flags.policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 2;
  }
  // Validate --lb-policy up front for a clean CLI error (the Frontend itself
  // treats an unknown policy as a programming error).
  auto lb_policy = serving::MakeRoutePolicy(flags.route.ToConfig(flags.seed));
  if (!lb_policy.ok()) {
    std::fprintf(stderr, "%s\n", lb_policy.status().ToString().c_str());
    return 2;
  }

  flowserve::sched::SchedConfig sched_config;
  sched_config.policy = flags.sched_policy;
  sched_config.tbt_budget_ms = flags.tbt_ms;
  sched_config.ttft_budget_ms = flags.ttft_ms;
  if (auto sched_policy = flowserve::sched::MakeSchedPolicy(sched_config); !sched_policy.ok()) {
    std::fprintf(stderr, "%s\n", sched_policy.status().ToString().c_str());
    return 2;
  }
  if (flags.trace != "internal" && flags.trace != "codegen" && flags.trace != "bursty") {
    std::fprintf(stderr, "unknown --trace %s (internal|codegen|bursty)\n", flags.trace.c_str());
    return 2;
  }
  if (flags.predictor_accuracy < 0.0 || flags.predictor_accuracy > 1.0) {
    std::fprintf(stderr, "--predictor must be in [0, 1]\n");
    return 2;
  }
  // Autoscaler over replica 0's colocated group, when --scale-policy is set.
  const bool autoscale = !flags.scale_policy.empty();
  serving::AutoscalerConfig as_config;
  as_config.policy = flags.scale_policy;
  as_config.headroom_tes = flags.headroom;
  as_config.min_tes = 1;
  as_config.max_tes = flags.max_tes;
  if (autoscale) {
    if (Status as_valid = as_config.Validate(); !as_valid.ok()) {
      std::fprintf(stderr, "%s\n", as_valid.ToString().c_str());
      return 2;
    }
  }

  if (flags.je_replicas < 1) {
    std::fprintf(stderr, "--je-replicas must be >= 1\n");
    return 2;
  }
  if (flags.colocated < 0 || flags.prefill_tes < 0 || flags.decode_tes < 0) {
    std::fprintf(stderr, "--colocated, --prefill-tes and --decode-tes must be >= 0\n");
    return 2;
  }
  // Checked for every replica count, so a bad value never goes unnoticed just
  // because the unreplicated default builds no log.
  if (Status ctrl = flags.ctrl.ToConfig().Validate(); !ctrl.ok()) {
    std::fprintf(stderr, "%s\n", ctrl.ToString().c_str());
    return 2;
  }
  if (flags.rps <= 0 || flags.duration <= 0) {
    std::fprintf(stderr, "--rps and --duration must be > 0\n");
    return 2;
  }
  sim::Simulator sim;
  obs.Attach(sim);
  hw::ClusterConfig cluster_config;
  int instances =
      flags.je_replicas * (flags.colocated + flags.prefill_tes + flags.decode_tes);
  cluster_config.npu_spec = flags.gen == "gen1" ? hw::NpuSpec::Gen1() : hw::NpuSpec::Gen2();
  cluster_config.num_machines =
      std::max(1, (instances * flags.tp + cluster_config.npus_per_machine - 1) /
                      cluster_config.npus_per_machine);
  if (!flags.npu_mix.empty()) {
    auto mix = hw::ParseNpuMix(flags.npu_mix);
    if (!mix.ok()) {
      std::fprintf(stderr, "%s\n", mix.status().ToString().c_str());
      return 2;
    }
    for (auto& spec : *mix) {
      if (spec.name == "ascend-gen1" && flags.npu_cost_gen1 > 0) {
        spec.cost_per_hour = flags.npu_cost_gen1;
      }
      if (spec.name == "ascend-gen2" && flags.npu_cost_gen2 > 0) {
        spec.cost_per_hour = flags.npu_cost_gen2;
      }
    }
    cluster_config.machine_specs = *mix;
    cluster_config.num_machines = static_cast<int>(mix->size());
    if (instances * flags.tp > cluster_config.num_machines * cluster_config.npus_per_machine) {
      std::fprintf(stderr, "--npu-mix supplies %d machines but the fleet needs %d NPUs\n",
                   cluster_config.num_machines, instances * flags.tp);
      return 2;
    }
  }
  if (flags.superpod) {
    cluster_config.enable_superpod = true;
    cluster_config.ub_gbps = flags.ub_gbps;
    cluster_config.machines_per_superpod = flags.machines_per_superpod;
  }
  hw::Cluster cluster(&sim, cluster_config);
  distflow::TransferEngine transfer(&sim, &cluster, {});
  // Outlives `manager` (the CM detaches its state machine at destruction).
  std::unique_ptr<ctrl::ControlLog> ctrl_log;
  if (flags.ctrl.replicated()) {
    ctrl_log = std::make_unique<ctrl::ControlLog>(&sim, flags.ctrl.ToConfig());
  }
  serving::ClusterManager manager(&sim, &cluster, &transfer, {}, {}, ctrl_log.get());
  if (!flags.npu_mix.empty() && flags.hetero_blind) {
    serving::PlacementConfig placement;
    placement.hetero_aware = false;
    manager.SetPlacement(placement);
  }

  serving::JeConfig je_config;
  je_config.policy = *policy;
  je_config.cost_aware = !flags.npu_mix.empty() && !flags.hetero_blind;
  std::vector<std::unique_ptr<serving::JobExecutor>> jes;
  for (int r = 0; r < flags.je_replicas; ++r) {
    jes.push_back(std::make_unique<serving::JobExecutor>(
        &sim, je_config, serving::PdHeatmap::Default(),
        flags.predictor_accuracy >= 1.0
            ? serving::MakeOraclePredictor()
            : serving::MakeNoisyPredictor(flags.predictor_accuracy, flags.seed)));
    if (ctrl_log != nullptr) {
      // Each replica's job table gets its own log domain; AttachControl also
      // registers the replica's TE-failure handler with the manager.
      jes.back()->AttachControl(ctrl_log.get(), &manager);
    }
  }

  flowserve::EngineConfig engine;
  engine.model = *model;
  engine.npu_spec = cluster_config.npu_spec;
  if (!flags.npu_mix.empty()) {
    // Each TE's cost model must reflect the silicon it actually lands on.
    engine.npu_spec = cluster_config.machine_specs.front();
    engine.npu_spec_from_placement = true;
  }
  engine.parallelism = {flags.tp, 1, 1};
  engine.sched = sched_config;
  // Refuse a model that does not fit on its NPUs before building any TE. A
  // mixed fleet needs it to fit on one of its generations; placement puts
  // each TE on silicon it fits.
  {
    std::vector<hw::NpuSpec> specs = {engine.npu_spec};
    if (!flags.npu_mix.empty()) {
      specs = cluster_config.machine_specs;
    }
    Status fits = Status::Ok();
    for (const hw::NpuSpec& spec : specs) {
      flowserve::EngineConfig probe = engine;
      probe.npu_spec = spec;
      fits = flowserve::KvBlockCapacity(probe).status();
      if (fits.ok()) {
        break;
      }
    }
    if (!fits.ok()) {
      std::fprintf(stderr, "%s\n", fits.ToString().c_str());
      return 2;
    }
  }
  std::vector<distflow::EndpointId> endpoints;
  auto add_te = [&](serving::JobExecutor* je, flowserve::EngineRole role) -> bool {
    engine.role = role;
    auto te = manager.CreateReadyTe(engine);
    if (!te.ok()) {
      std::fprintf(stderr, "TE creation failed: %s\n", te.status().ToString().c_str());
      return false;
    }
    endpoints.push_back((*te)->id());
    switch (role) {
      case flowserve::EngineRole::kColocated:
        je->AddColocatedTe(*te);
        break;
      case flowserve::EngineRole::kPrefillOnly:
        je->AddPrefillTe(*te);
        break;
      case flowserve::EngineRole::kDecodeOnly:
        je->AddDecodeTe(*te);
        break;
    }
    return true;
  };
  for (auto& je : jes) {
    for (int i = 0; i < flags.colocated; ++i) {
      if (!add_te(je.get(), flowserve::EngineRole::kColocated)) {
        return 1;
      }
    }
    for (int i = 0; i < flags.prefill_tes; ++i) {
      if (!add_te(je.get(), flowserve::EngineRole::kPrefillOnly)) {
        return 1;
      }
    }
    for (int i = 0; i < flags.decode_tes; ++i) {
      if (!add_te(je.get(), flowserve::EngineRole::kDecodeOnly)) {
        return 1;
      }
    }
  }
  DS_CHECK_OK(transfer.LinkCluster(endpoints, nullptr));
  sim.Run();

  serving::Frontend frontend(&sim, flags.route.ToConfig(flags.seed));
  for (auto& je : jes) {
    frontend.RegisterServingJe(flags.model, je.get());
  }

  if (autoscale) {
    // Pre-warm pools + DRAM preload so mid-trace scale-ups ride the fast path.
    manager.ReservePrewarmedPods(flags.max_tes);
    manager.ReservePrewarmedTes(flags.max_tes);
    for (int m = 0; m < cluster_config.num_machines; ++m) {
      manager.PreloadModelToDram(m, *model);
    }
    sim.Run();
  }
  if (ctrl_log == nullptr) {
    // With a shared control log, AttachControl already registered per-JE
    // failure handlers; registering again would double-dispatch retries.
    manager.AddFailureHandler([&jes](serving::TeId id) {
      for (auto& je : jes) {
        je->OnTeFailure(id);
      }
    });
  }
  // Preloading advances sim time; shift trace arrivals so t=0 lands "now".
  const TimeNs t0 = sim.Now();

  workload::TraceConfig trace_config =
      flags.trace == "codegen"
          ? workload::TraceGenerator::CodeGenTrace(flags.rps, flags.duration, flags.seed)
          : workload::TraceGenerator::InternalTrace(flags.rps, flags.duration, flags.seed);
  std::vector<workload::RequestSpec> trace;
  if (flags.trace == "bursty") {
    double peak = flags.peak_rps > 0 ? flags.peak_rps : flags.rps * 4.0;
    double period = flags.period > 0 ? flags.period : flags.duration / 3.0;
    trace = workload::TraceGenerator(trace_config).GenerateBursty(flags.rps, peak, period);
  } else {
    trace = workload::TraceGenerator(trace_config).Generate();
  }
  for (auto& spec : trace) {
    spec.arrival += t0;
  }
  if (flags.deadline_ms > 0) {
    for (auto& spec : trace) {
      spec.deadline = spec.arrival + MsToNs(flags.deadline_ms);
    }
  }

  if (autoscale) {
    engine.role = flowserve::EngineRole::kColocated;
    manager.StartAutoscaler(jes[0].get(), as_config, serving::ScaleRequest{engine});
  }
  std::printf("deepserve_sim: %s %s, %d x (%d coloc + %dP%dD) (tp%d, %s), policy=%s, "
              "sched=%s, lb=%s, %.2f rps x %.0fs -> %zu requests\n",
              flags.model.c_str(), flags.gen.c_str(), flags.je_replicas, flags.colocated,
              flags.prefill_tes, flags.decode_tes, flags.tp,
              cluster_config.npu_spec.name.c_str(), flags.policy.c_str(),
              flags.sched_policy.c_str(), flags.route.lb_policy.c_str(), flags.rps,
              flags.duration, trace.size());
  if (!flags.npu_mix.empty()) {
    std::printf("hetero: mix=%s, placement=%s, superpod=%s\n", flags.npu_mix.c_str(),
                flags.hetero_blind ? "blind" : "cost-aware",
                cluster_config.enable_superpod ? "on" : "off");
  }

  workload::MetricsCollector metrics;
  bench::TraceReplay replay(&sim, trace, bench::RecordInto(&metrics));
  replay.ScheduleOnto(&frontend, flags.model);
  if (autoscale) {
    // The autoscaler's periodic tick keeps the queue non-empty: run to the
    // trace horizon, stop it, then drain the remaining in-flight work.
    sim.RunUntil(t0 + SToNs(flags.duration));
    manager.StopAutoscaler();
  }
  sim.Run();

  std::printf("%s\n", metrics.Summary().c_str());
  if (autoscale) {
    const serving::AutoscalerStats& as = manager.autoscaler()->stats();
    std::printf("autoscaler(%s): %lld scale-ups, %lld scale-downs; drains %lld done "
                "(%.1f ms mean, %lld seqs drained), %lld aborted, %lld timed out\n",
                flags.scale_policy.c_str(),
                static_cast<long long>(manager.stats().scale_ups),
                static_cast<long long>(manager.stats().scale_downs),
                static_cast<long long>(as.drains_completed), as.mean_drain_ms(),
                static_cast<long long>(as.drained_seqs),
                static_cast<long long>(as.drains_aborted),
                static_cast<long long>(as.drain_timeouts));
  }
  const bench::ReplayCounts& counts = replay.counts();
  if (counts.errored > 0 || counts.rejected > 0) {
    std::printf("errored (shed / deadline exceeded): %lld, rejected pre-dispatch: %lld "
                "of %zu\n",
                static_cast<long long>(counts.errored), static_cast<long long>(counts.rejected),
                trace.size());
  }
  int64_t routed_colocated = 0;
  int64_t routed_disaggregated = 0;
  int64_t locality_hits = 0;
  for (auto& je : jes) {
    routed_colocated += je->stats().routed_colocated;
    routed_disaggregated += je->stats().routed_disaggregated;
    locality_hits += je->stats().locality_hits;
  }
  std::printf("routing: %lld colocated, %lld disaggregated; locality hits %lld\n",
              static_cast<long long>(routed_colocated),
              static_cast<long long>(routed_disaggregated),
              static_cast<long long>(locality_hits));
  if (!flags.npu_mix.empty()) {
    int64_t narrowed = 0;
    int64_t fallbacks = 0;
    for (auto& je : jes) {
      narrowed += je->stats().cost_narrowed;
      fallbacks += je->stats().cost_fallbacks;
    }
    std::printf("hetero dispatch: %lld cost-narrowed, %lld fallbacks\n",
                static_cast<long long>(narrowed), static_cast<long long>(fallbacks));
  }
  const serving::FrontendStats& fe = frontend.stats();
  if (fe.hedges_launched > 0 || fe.ejections > 0 || fe.rejected_total() > 0) {
    std::printf("traffic(%s): %lld hedges (%lld wins, %lld cancels), %lld ejections "
                "(%lld readmissions), %lld rejected\n",
                flags.route.lb_policy.c_str(), static_cast<long long>(fe.hedges_launched),
                static_cast<long long>(fe.hedge_wins),
                static_cast<long long>(fe.hedge_cancels),
                static_cast<long long>(fe.ejections),
                static_cast<long long>(fe.readmissions),
                static_cast<long long>(fe.rejected_total()));
  }
  if (!flags.csv.empty()) {
    Status status = metrics.WriteCsvFile(flags.csv);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("per-request metrics written to %s\n", flags.csv.c_str());
  }
  return 0;
}
