// Shared scaffolding for the figure-reproduction benches and examples: flag
// parsing, the observability session, fleet construction (colocated TEs and
// PD pairs on a simulated cluster), the one trace-replay driver and its
// conservation check, and table formatting.
#ifndef DEEPSERVE_BENCH_COMMON_H_
#define DEEPSERVE_BENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "distflow/distflow.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/route_policy.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/metrics.h"
#include "workload/tracegen.h"

namespace deepserve::bench {

// Strict number parsing for flag and list values: all of `text` must be one
// number that fits T (no sign on unsigned, no leading space, no trailing
// characters, finite). On failure `*out` is left as it was.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  *out = value;
  return true;
}

// The one command-line parser for the benches and examples. Register typed
// flags up front (ObsSession::Register adds the observability ones), then
// Parse() consumes argv. `--help` prints every registered flag and exits 0.
//
// Value flags are spelled --name=VALUE; bool flags are bare --name switches.
// An unknown flag, a numeric value that ParseNumber rejects, or a
// PositiveFlag value <= 0 prints a message and exits 2.
// Help order is registration order, so related flags group naturally.
class OptionRegistry {
 public:
  void Flag(const std::string& name, double* out, const std::string& help) {
    NumberFlag(name, out, help);
  }
  // A rate, a duration or a shape exponent: a value <= 0 is refused like a
  // malformed one.
  void PositiveFlag(const std::string& name, double* out, const std::string& help) {
    NumberFlag(name, out, help, /*positive=*/true);
  }
  void Flag(const std::string& name, int* out, const std::string& help) {
    NumberFlag(name, out, help);
  }
  void Flag(const std::string& name, uint64_t* out, const std::string& help) {
    NumberFlag(name, out, help);
  }
  void Flag(const std::string& name, std::string* out, const std::string& help) {
    Add(name, help, /*is_switch=*/false, [out](const std::string& value) { *out = value; });
  }
  void Flag(const std::string& name, bool* out, const std::string& help) {
    Add(name, help, /*is_switch=*/true, [out](const std::string&) { *out = true; });
  }

  void Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintHelp(argv[0]);
        std::exit(0);
      }
      if (!Consume(arg)) {
        std::fprintf(stderr, "unknown flag %s (see --help)\n", argv[i]);
        std::exit(2);
      }
    }
  }

  void PrintHelp(const char* argv0) const {
    std::printf("usage: %s [flags]\n", argv0);
    for (const auto& entry : entries_) {
      std::printf("  --%s%s\n        %s\n", entry.name.c_str(), entry.is_switch ? "" : "=VALUE",
                  entry.help.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    std::string help;
    bool is_switch;
    std::function<void(const std::string&)> set;
  };

  void Add(const std::string& name, const std::string& help, bool is_switch,
           std::function<void(const std::string&)> set) {
    entries_.push_back(Entry{name, help, is_switch, std::move(set)});
  }

  template <typename T>
  void NumberFlag(const std::string& name, T* out, const std::string& help,
                  bool positive = false) {
    Add(name, help, /*is_switch=*/false, [name, out, positive](const std::string& value) {
      if (!ParseNumber(value, out) || (positive && !(*out > 0))) {
        std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n", name.c_str(),
                     value.c_str(),
                     positive                        ? "a number > 0"
                     : std::is_floating_point_v<T> ? "a finite number"
                                                   : "an integer in range");
        std::exit(2);
      }
    });
  }

  bool Consume(const std::string& arg) {
    for (const auto& entry : entries_) {
      if (entry.is_switch) {
        if (arg == "--" + entry.name) {
          entry.set("");
          return true;
        }
      } else {
        std::string prefix = "--" + entry.name + "=";
        if (arg.compare(0, prefix.size(), prefix) == 0) {
          entry.set(arg.substr(prefix.size()));
          return true;
        }
      }
    }
    return false;
  }

  std::vector<Entry> entries_;  // registration order == help order (deterministic)
};

// A bursty trace sweeps its rate between a base and a peak, so a peak below
// the base is a usage error (exit 2), not a generator abort.
inline void RequirePeakAtLeastBase(const char* base_flag, double base_rps, double peak_rps) {
  if (peak_rps < base_rps) {
    std::fprintf(stderr, "--peak-rps (%g) must be >= --%s (%g)\n", peak_rps, base_flag,
                 base_rps);
    std::exit(2);
  }
}

// The traffic-management flags shared by deepserve_sim and the traffic
// benches, mapped onto serving::RouteConfig. Register() leaves out
// --lb-policy: fig_traffic fixes a policy per variant, so deepserve_sim, which
// routes by one policy, registers that flag itself.
struct RouteOptions {
  std::string lb_policy = "rr";
  double hedge_ms = 0.0;      // 0 disables hedging
  int retry_budget = 0;       // budget floor; 0 leaves retries uncapped
  int outlier_errors = 0;     // consecutive errors before ejection; 0 = off
  double outlier_base_s = 5.0;
  double outlier_max_s = 60.0;

  void Register(OptionRegistry& options) {
    options.Flag("hedge-ms", &hedge_ms,
                 "hedge-delay floor in ms; stragglers are duplicated onto a second "
                 "replica after max(this, observed p95) (0 = no hedging)");
    options.Flag("retry-budget", &retry_budget,
                 "shared crash-retry budget floor across JEs (0 = uncapped retries)");
    options.Flag("outlier-errors", &outlier_errors,
                 "consecutive errors before ejecting a replica (0 = ejection off)");
    options.Flag("outlier-base-s", &outlier_base_s, "initial ejection duration, seconds");
    options.Flag("outlier-max-s", &outlier_max_s, "ejection-backoff cap, seconds");
  }

  serving::RouteConfig ToConfig(uint64_t seed) const {
    serving::RouteConfig config;
    config.policy = lb_policy;
    config.seed = seed;
    config.hedge_floor = MsToNs(hedge_ms);
    config.retry_budget = retry_budget > 0;
    config.retry_floor = retry_budget;
    config.eject_consecutive_errors = outlier_errors;
    config.eject_base = SToNs(outlier_base_s);
    config.eject_max = SToNs(outlier_max_s);
    return config;
  }
};

// The replicated-control-plane flags shared by deepserve_sim and the
// failover benches, mapped onto ctrl::CtrlConfig.
struct CtrlOptions {
  int replicas = 1;         // 1 = degenerate unreplicated log (the default)
  double latency_ms = 1.0;  // append -> applied-on-a-standby delay
  double lease_ms = 500.0;  // leader lease (failover-delay floor)

  void Register(OptionRegistry& options) {
    options.Flag("ctrl-replicas", &replicas,
                 "control-plane log replicas per domain (1 = unreplicated: a "
                 "leader crash is permanent; >=2 enables standby failover)");
    options.Flag("ctrl-latency-ms", &latency_ms,
                 "control-log replication latency in ms (standby lag charged "
                 "at takeover)");
    options.Flag("ctrl-lease-ms", &lease_ms,
                 "leader lease in ms a standby must wait out before takeover");
  }

  bool replicated() const { return replicas > 1; }

  ctrl::CtrlConfig ToConfig() const {
    ctrl::CtrlConfig config;
    config.replicas = replicas;
    config.quorum = replicas / 2 + 1;
    config.replication_latency = MsToNs(latency_ms);
    config.lease_duration = MsToNs(lease_ms);
    return config;
  }
};

// The paper's default serving instance: the 34B model at TP=4 on Gen2 NPUs.
inline flowserve::EngineConfig Engine34BTp4(flowserve::EngineRole role) {
  flowserve::EngineConfig config;
  config.model = model::ModelSpec::Yi34B();
  config.npu_spec = hw::NpuSpec::Gen2();
  config.parallelism = {4, 1, 1};
  config.role = role;
  return config;
}

// The online-serving testbed variant (Figs. 4-6): Gen1-class NPUs and a
// tighter per-step token budget, which puts the instance near the paper's
// operating point (saturation around ~1 RPS per fleet, visible prefill/decode
// interference inside PD-colocated engines).
inline flowserve::EngineConfig Engine34BTp4Paper(flowserve::EngineRole role) {
  flowserve::EngineConfig config = Engine34BTp4(role);
  config.npu_spec = hw::NpuSpec::Gen1();
  config.max_tokens_per_step = 2048;
  config.prefill_chunk_tokens = 1024;
  return config;
}

// Command-line observability session for the benches. Register() adds
//   --trace-out=<path>     Chrome trace_event JSON (chrome://tracing, Perfetto)
//   --trace-jsonl=<path>   one event per line, for scripted analysis
//   --metrics-out=<path>   metrics-registry dump (counters/gauges/stats)
// to the binary's OptionRegistry. The session attaches its tracer/registry
// to every Testbed simulator built while it is alive (raw-sim benches call
// Attach() themselves). Outputs are written when the session is destroyed.
// With no flags given, nothing attaches and the run is bit-identical to an
// uninstrumented one.
class ObsSession {
 public:
  ObsSession() { active_ = this; }

  // For benches whose only flags are the observability ones.
  ObsSession(int argc, char** argv) : ObsSession() {
    OptionRegistry options;
    Register(options);
    options.Parse(argc, argv);
  }

  void Register(OptionRegistry& options) {
    options.Flag("trace-out", &chrome_path_,
                 "Chrome trace_event JSON (chrome://tracing, Perfetto)");
    options.Flag("trace-jsonl", &jsonl_path_, "one trace event per line, for scripted analysis");
    options.Flag("metrics-out", &metrics_path_, "metrics-registry dump (counters/gauges/stats)");
  }

  ~ObsSession() {
    Finish();
    if (active_ == this) {
      active_ = nullptr;
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return !chrome_path_.empty() || !jsonl_path_.empty(); }
  bool metrics_enabled() const { return !metrics_path_.empty(); }

  void Attach(sim::Simulator& sim) {
    if (tracing()) {
      sim.SetTracer(&tracer_);
    }
    if (metrics_enabled()) {
      sim.SetMetrics(&metrics_);
    }
  }

  // Writes the requested outputs (idempotent; also runs at destruction).
  void Finish() {
    if (finished_) {
      return;
    }
    finished_ = true;
    auto report = [](const Status& status, const std::string& path, size_t events) {
      if (!status.ok()) {
        std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      } else {
        std::fprintf(stderr, "trace: wrote %zu events to %s\n", events, path.c_str());
      }
    };
    if (!chrome_path_.empty()) {
      report(tracer_.WriteChromeJson(chrome_path_), chrome_path_, tracer_.size());
    }
    if (!jsonl_path_.empty()) {
      report(tracer_.WriteJsonl(jsonl_path_), jsonl_path_, tracer_.size());
    }
    if (!metrics_path_.empty()) {
      std::string dump = metrics_.Dump();
      std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "metrics: cannot open %s\n", metrics_path_.c_str());
      } else {
        std::fwrite(dump.data(), 1, dump.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "metrics: wrote %s\n", metrics_path_.c_str());
      }
    }
  }

  obs::Tracer& tracer() { return tracer_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  // The session currently in scope (benches construct exactly one, first
  // thing in main), or nullptr when the bench takes no observability flags.
  static ObsSession* active() { return active_; }

 private:
  std::string chrome_path_;
  std::string jsonl_path_;
  std::string metrics_path_;
  bool finished_ = false;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  static inline ObsSession* active_ = nullptr;
};

// Request outcomes of one replay: every submitted request should end in
// exactly one of completed / errored / rejected.
struct ReplayCounts {
  int64_t submitted = 0;
  int64_t completed = 0;          // on_complete
  int64_t errored = 0;            // on_error after dispatch
  int64_t rejected = 0;           // pre-dispatch non-OK Status (Frontend only)
  int64_t double_terminated = 0;  // terminations past a request's first

  int64_t terminated() const { return completed + errored + rejected; }
};

// The one request-replay driver for the benches and examples. It schedules
// a trace's arrivals (absolute sim times) onto a JE or a Frontend, joins each
// request's first-token time with its completion, counts outcomes, and mixes
// every termination into one timeline hash. The caller runs the simulator;
// `trace` and the driver must outlive the run. See DESIGN.md ("One replay
// driver").
class TraceReplay {
 public:
  // Bench-specific statistics for one completion: the request as replayed,
  // its first-token time, and the finished sequence.
  using CompletionHook = std::function<void(const workload::RequestSpec& spec,
                                            TimeNs first_token, const flowserve::Sequence& seq)>;

  TraceReplay(sim::Simulator* sim, const std::vector<workload::RequestSpec>& trace,
              CompletionHook on_complete = nullptr)
      : sim_(sim),
        trace_(trace),
        on_complete_(std::move(on_complete)),
        first_token_(trace.size(), kNoFirstToken),
        terminated_(trace.size(), 0) {
    counts_.submitted = static_cast<int64_t>(trace.size());
  }

  TraceReplay(const TraceReplay&) = delete;
  TraceReplay& operator=(const TraceReplay&) = delete;

  void ScheduleOnto(serving::JobExecutor* je) {
    je_ = je;
    ScheduleArrivals();
  }

  // Chat completions for `model`, each with request.deadline = spec.deadline.
  void ScheduleOnto(serving::Frontend* frontend, std::string model) {
    frontend_ = frontend;
    model_ = std::move(model);
    ScheduleArrivals();
  }

  // FNV-1a over 64-bit words; benches fold their post-run stats in too.
  void Mix(uint64_t value) {
    hash_ ^= value;
    hash_ *= 1099511628211ull;
  }

  const ReplayCounts& counts() const { return counts_; }
  uint64_t timeline_hash() const { return hash_; }

 private:
  static constexpr TimeNs kNoFirstToken = -1;

  // Per-request state lives in vectors indexed by trace position, and every
  // callback captures `this` and that index (small enough for std::function's
  // inline buffer): no per-request map, no copied spec.
  //
  // Arrivals are chained: only the first arrival (and any at its timestamp)
  // is queued here, and each Arrive queues the next, so the event queue holds
  // one trace step at a time however long the trace is. Every arrival is
  // queued as of this instant, so among events due at its time it keeps the
  // place it would have had if all had been queued up front.
  void ScheduleArrivals() {
    DS_CHECK(std::is_sorted(trace_.begin(), trace_.end(),
                            [](const workload::RequestSpec& a, const workload::RequestSpec& b) {
                              return a.arrival < b.arrival;
                            }))
        << "a replayed trace must be sorted by arrival";
    scheduled_at_ = sim_->Now();
    ScheduleFrom(0);
  }

  // Queues arrival `first` and every later one with the same timestamp, in
  // trace order.
  void ScheduleFrom(size_t first) {
    for (size_t i = first; i < trace_.size() && trace_[i].arrival == trace_[first].arrival; ++i) {
      sim_->ScheduleAt(trace_[i].arrival, [this, i] { Arrive(i); }, scheduled_at_);
    }
  }

  void Arrive(size_t i) {
    if (i + 1 < trace_.size() && trace_[i + 1].arrival != trace_[i].arrival) {
      ScheduleFrom(i + 1);  // arrivals at this timestamp are queued already
    }
    // On a disaggregated route the first token comes from the prefill TE and
    // the completion from the decode TE, which never saw the first token.
    serving::ResponseHandler handler{
        [this, i](const flowserve::Sequence& seq) { first_token_[i] = seq.first_token_time; },
        [this, i](const flowserve::Sequence& seq) { Complete(i, seq); },
        [this, i](const Status&) { Fail(i, &counts_.errored); }};
    const workload::RequestSpec& spec = trace_[i];
    if (frontend_ == nullptr) {
      je_->HandleRequest(spec, std::move(handler));
      return;
    }
    serving::ChatRequest request;
    request.model = model_;
    request.spec = spec;
    request.deadline = spec.deadline;
    // A pre-dispatch rejection reports through the returned Status alone (the
    // handler never fires): it is this request's one termination.
    if (!frontend_->ChatCompletion(request, std::move(handler)).ok()) {
      Fail(i, &counts_.rejected);
    }
  }

  void Terminate(size_t i, int64_t* outcome) {
    ++*outcome;
    if (terminated_[i] != 0) {
      ++counts_.double_terminated;
    }
    terminated_[i] = 1;
  }

  void Complete(size_t i, const flowserve::Sequence& seq) {
    const workload::RequestSpec& spec = trace_[i];
    Terminate(i, &counts_.completed);
    Mix(spec.id * 2);
    Mix(static_cast<uint64_t>(seq.finish_time));
    if (on_complete_) {
      TimeNs first = first_token_[i] != kNoFirstToken ? first_token_[i] : seq.first_token_time;
      on_complete_(spec, first, seq);
    }
  }

  void Fail(size_t i, int64_t* outcome) {
    Terminate(i, outcome);
    Mix(trace_[i].id * 2 + 1);
  }

  sim::Simulator* sim_;
  const std::vector<workload::RequestSpec>& trace_;
  CompletionHook on_complete_;
  serving::JobExecutor* je_ = nullptr;
  serving::Frontend* frontend_ = nullptr;
  std::string model_;
  TimeNs scheduled_at_ = 0;  // the instant ScheduleOnto ran
  std::vector<TimeNs> first_token_;
  std::vector<uint8_t> terminated_;
  ReplayCounts counts_;
  uint64_t hash_ = 1469598103934665603ull;
};

// A completion hook that records every completion into `metrics`.
inline TraceReplay::CompletionHook RecordInto(workload::MetricsCollector* metrics) {
  return [metrics](const workload::RequestSpec& spec, TimeNs first_token,
                   const flowserve::Sequence& seq) {
    workload::RequestRecord record;
    record.id = spec.id;
    record.arrival = spec.arrival;
    record.first_token = first_token;
    record.completion = seq.finish_time;
    record.prefill_len = spec.prefill_len();
    record.decode_len = spec.decode_len;
    metrics->Record(record);
  };
}

// The one request-conservation check. It holds when every submitted request
// terminated exactly once, apart from exactly `hung` requests known never to
// terminate (losses no failure detector saw), and, given the Frontend's
// stats, when every chat request was either dispatched or rejected. On a
// violation it prints the counts on stderr and returns false.
inline bool CheckConservation(const std::string& label, const ReplayCounts& counts,
                              const serving::FrontendStats* frontend = nullptr,
                              int64_t hung = 0) {
  const bool frontend_ok =
      frontend == nullptr ||
      frontend->requests == frontend->chat_dispatched + frontend->rejected_total();
  if (counts.terminated() + hung == counts.submitted && counts.double_terminated == 0 &&
      frontend_ok) {
    return true;
  }
  std::fprintf(stderr,
               "CONSERVATION VIOLATED (%s): submitted=%" PRId64 " completed=%" PRId64
               " errored=%" PRId64 " rejected=%" PRId64 " double_terminated=%" PRId64
               " expected_hung=%" PRId64 "%s\n",
               label.c_str(), counts.submitted, counts.completed, counts.errored,
               counts.rejected, counts.double_terminated, hung,
               frontend_ok ? "" : " (frontend: requests != dispatched + rejected)");
  return false;
}

// A self-contained serving testbed: simulator, cluster, DistFlow, manager,
// TEs, and one JE.
class Testbed {
 public:
  // Homogeneous `num_machines` cluster and a JE running `policy`. `ctrl`:
  // when non-null, the CM's TeDirectory (and any JE that calls
  // AttachControl(ctrl_log(), ...)) lives on a shared control log with this
  // replication config; null keeps the CM's internal degenerate log.
  explicit Testbed(int num_machines = 4,
                   serving::SchedulingPolicy policy = serving::SchedulingPolicy::kCombined,
                   serving::PdHeatmap heatmap = serving::PdHeatmap::Default(),
                   std::unique_ptr<serving::DecodeLengthPredictor> predictor =
                       serving::MakeOraclePredictor(),
                   const ctrl::CtrlConfig* ctrl = nullptr)
      : Testbed(HomogeneousCluster(num_machines), JeWithPolicy(policy), std::move(predictor),
                std::move(heatmap), ctrl) {}

  // Custom-cluster testbed (heterogeneous fleets, SuperPod fabric): the
  // caller supplies the full ClusterConfig and JeConfig.
  Testbed(const hw::ClusterConfig& cluster_config, const serving::JeConfig& je_config,
          std::unique_ptr<serving::DecodeLengthPredictor> predictor =
              serving::MakeOraclePredictor(),
          serving::PdHeatmap heatmap = serving::PdHeatmap::Default(),
          const ctrl::CtrlConfig* ctrl = nullptr) {
    if (ObsSession* obs = ObsSession::active()) {
      obs->Attach(sim_);
    }
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cluster_config);
    transfer_ = std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(),
                                                           distflow::DistFlowConfig{});
    if (ctrl != nullptr) {
      ctrl_log_ = std::make_unique<ctrl::ControlLog>(&sim_, *ctrl);
    }
    manager_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(), transfer_.get(),
                                                         serving::ScalingOptimizations{},
                                                         serving::ScalingLatencyModel{},
                                                         ctrl_log_.get());
    je_ = std::make_unique<serving::JobExecutor>(&sim_, je_config, std::move(heatmap),
                                                 std::move(predictor));
  }

  // Builds `colocated` unified TEs plus `prefill`/`decode` disaggregated TEs
  // and links their DistFlow endpoints.
  void BuildFleet(const flowserve::EngineConfig& base, int colocated, int prefill, int decode) {
    std::vector<distflow::EndpointId> endpoints;
    auto add = [&](flowserve::EngineRole role) {
      auto config = base;
      config.role = role;
      auto te = manager_->CreateReadyTe(config);
      if (!te.ok()) {
        std::fprintf(stderr, "fleet construction failed: %s\n",
                     te.status().ToString().c_str());
        std::abort();
      }
      endpoints.push_back((*te)->id());
      switch (role) {
        case flowserve::EngineRole::kColocated:
          je_->AddColocatedTe(*te);
          break;
        case flowserve::EngineRole::kPrefillOnly:
          je_->AddPrefillTe(*te);
          break;
        case flowserve::EngineRole::kDecodeOnly:
          je_->AddDecodeTe(*te);
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
    if (!transfer_->LinkCluster(endpoints, nullptr).ok()) {
      std::abort();
    }
    sim_.Run();  // settle link setup
  }

  // Replays a trace through the JE and runs the simulation to completion.
  workload::MetricsCollector Replay(const std::vector<workload::RequestSpec>& trace) {
    workload::MetricsCollector metrics;
    TraceReplay replay(&sim_, trace, RecordInto(&metrics));
    replay.ScheduleOnto(je_.get());
    sim_.Run();
    return metrics;
  }

  sim::Simulator& sim() { return sim_; }
  hw::Cluster& cluster() { return *cluster_; }
  distflow::TransferEngine& transfer() { return *transfer_; }
  serving::ClusterManager& manager() { return *manager_; }
  serving::JobExecutor& je() { return *je_; }
  // The shared control log, or null when the Testbed was built without one
  // (the CM then runs on its internal degenerate log).
  ctrl::ControlLog* ctrl_log() { return ctrl_log_.get(); }

 private:
  static hw::ClusterConfig HomogeneousCluster(int num_machines) {
    hw::ClusterConfig config;
    config.num_machines = num_machines;
    config.machines_per_scaleup_domain = std::max(4, num_machines);
    return config;
  }

  static serving::JeConfig JeWithPolicy(serving::SchedulingPolicy policy) {
    serving::JeConfig config;
    config.policy = policy;
    return config;
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<ctrl::ControlLog> ctrl_log_;  // before manager_: CM detaches in ~
  std::unique_ptr<serving::ClusterManager> manager_;
  std::unique_ptr<serving::JobExecutor> je_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

}  // namespace deepserve::bench

#endif  // DEEPSERVE_BENCH_COMMON_H_
