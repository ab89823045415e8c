// Replay program of the host-cost benchmark for the DeepServe simulator.
//
// Replays one named cluster-scale workload against the library and prints
// one JSON object on stdout: what the replay cost the host (wall time per
// simulated request, set-up time, memory), what the modelled cluster saw
// (sim_* latency metrics, in simulated time), a fingerprint of the simulated
// outputs, and the outcome of the correctness checks. perfbench/run.py runs
// this binary several times per measurement and aggregates; see
// perfbench/README.md for the workloads and the metric definitions.
//
//   ds_perfbench --workload=NAME --seed=N [--traced] [--scale=F]
//
// The benchmark only calls public entry points and reads public stats. With
// --traced it additionally times every Simulator::Step and every call into
// JobExecutor::HandleRequest / Frontend::ChatCompletion; the simulated
// outputs (and so the fingerprint) must not change.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time_units.h"
#include "ctrl/control_log.h"
#include "distflow/distflow.h"
#include "faults/fault_injector.h"
#include "hw/cluster.h"
#include "model/model_spec.h"
#include "serving/cluster_manager.h"
#include "serving/frontend.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/route_policy.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

using namespace deepserve;

namespace {

// ---------------------------------------------------------------------------
// Workloads. Arrivals are open-loop in simulated time; the host replays them
// as fast as it can. Each replay ends when every request has terminated, or
// at kHorizonSlack of simulated time after the arrival window, where any
// request still open counts as failed (a livelock shows up as failures, not
// as a hang).
constexpr DurationNs kHorizonSlack = SToNs(120);

struct Workload {
  const char* name;
  bool codegen;       // CodeGenTrace shape; otherwise InternalTrace
  double rps;         // Poisson rate (bursty: trough rate)
  double peak_rps;    // > 0: bursty arrivals between rps and peak_rps
  double period_s;    // bursty wave period
  double duration_s;  // arrival window
  // > 1: a Frontend routes across the JE replicas; 1: arrivals go straight
  // into the JE.
  int je_replicas;
  int colocated;  // TEs per JE replica, by role
  int prefill;
  int decode;
  int64_t kv_blocks;  // KV blocks per TE: must hold the longest context
  int ctrl_replicas;  // control-log replicas (1 = degenerate log)
  // FaultInjector::ParseSchedule spec, in seconds after the first arrival.
  const char* faults;
  double ttft_limit_ms;  // SLO limits for sim_slo_attain
  double tpot_limit_ms;
};

constexpr Workload kWorkloads[] = {
    // 64 colocated TEs behind one JE on the InternalTrace shape: the JE's
    // global prompt tree grows with the trace, so dispatch dominates.
    {"coloc_shared_long", false, 200.0, 0.0, 0.0, 50.0, 1, 64, 0, 0, 4096, 1, "", 150.0, 4.0},
    // 8P+8D on the CodeGenTrace shape with tight KV: RTC swap and discard,
    // populate and DistFlow KV hand-off. 6144 blocks hold CodeGenTrace's
    // longest context (16384 + 2048 tokens = 1153 blocks) several times over;
    // at 4096 some seeds leave decode hand-offs retrying forever (README.md).
    {"pd_codegen_kv", true, 30.0, 0.0, 0.0, 60.0, 1, 0, 8, 8, 6144, 1, "", 500.0, 3.2},
    // Frontend over 4 JE replicas on a 3-replica control log, bursty load and
    // a fixed fault plan: TE crashes, a straggler, a link degrade and one CM
    // and one JE leader crash.
    {"frontend_chaos", false, 40.0, 160.0, 20.0, 40.0, 4, 8, 0, 0, 4096, 3,
     "npu@4#3;slow@6:4x12#9;link@9:0.25x10#1;cm@12;shell@14#20;je@18:2;npu@24#7", 150.0, 4.5},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// Host clock. Nothing simulated ever reads it.
int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double HostSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Peak resident set of this process, MB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Host-speed probe: a fixed mix of the work a replay does (small allocations
// and pointer chasing in a std::map, random reads over a table larger than
// the caches, a sort), independent of the simulator's code. run.py divides
// host times by it, so a shared host that runs slower for minutes does not
// read as a slower simulator.
double ProbeSeconds() {
  static std::vector<uint32_t> table(8u << 20);  // 32 MB, allocated once
  int64_t start = HostNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 17;
  };
  std::map<uint64_t, uint64_t> tree;
  for (int i = 0; i < 100000; ++i) {
    tree[next() % 20000] += static_cast<uint64_t>(i);
    if (tree.size() > 4000) {
      tree.erase(tree.begin());
    }
  }
  uint64_t sink = tree.size();
  for (int i = 0; i < 200000; ++i) {
    uint32_t& slot = table[next() % table.size()];
    slot += static_cast<uint32_t>(i);
    sink += slot;
  }
  std::vector<uint64_t> keys(100000);
  for (uint64_t& k : keys) {
    k = next();
  }
  std::sort(keys.begin(), keys.end());
  sink += keys[keys.size() / 2];
  double seconds = HostSeconds(HostNs() - start);
  return sink == 42 ? seconds + 1e-12 : seconds;  // keep the work observable
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr const char* kModelName = "tiny-1b";

// Per-request outcome, in flat arrays indexed by trace position.
enum class Outcome : uint8_t { kOpen, kCompleted, kErrored, kRejected };

class Bench {
 public:
  Bench(const Workload& workload, uint64_t seed, double scale, bool traced)
      : w_(workload), seed_(seed), scale_(scale), traced_(traced) {}

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Trace generation + fleet build + link setup, before the first arrival.
  void Setup() {
    int64_t t0 = HostNs();
    GenerateTrace();
    int64_t t1 = HostNs();
    BuildFleet();
    int64_t t2 = HostNs();
    generate_s_ = HostSeconds(t1 - t0);
    setup_s_ = HostSeconds(t2 - t0);
  }

  void Replay() {
    const size_t n = trace_.size();
    first_token_.assign(n, -1);
    done_.assign(n, -1);
    outcome_.assign(n, Outcome::kOpen);
    sim_.ScheduleAt(t0_ + SToNs(w_.duration_s * scale_) + kHorizonSlack, [this] { stop_ = true; });
    if (n == 0) {
      stop_ = true;
    }
    rss_before_mb_ = PeakRssMb();
    uint64_t fired_before = sim_.TotalFired();
    replay_start_ns_ = HostNs();
    if (n > 0) {
      ScheduleArrival(0);
    }
    if (traced_) {
      RunLoop<true>();
    } else {
      RunLoop<false>();
    }
    replay_end_ns_ = HostNs();
    rss_after_mb_ = PeakRssMb();
    events_ = sim_.TotalFired() - fired_before;
    sim_end_ = sim_.Now();
  }

  // `probe_s`: mean host-speed probe time around this replay.
  void Report(double probe_s) const;

 private:
  void GenerateTrace() {
    double duration = w_.duration_s * scale_;
    workload::TraceConfig config =
        w_.codegen ? workload::TraceGenerator::CodeGenTrace(w_.rps, duration, seed_)
                   : workload::TraceGenerator::InternalTrace(w_.rps, duration, seed_);
    workload::TraceGenerator generator(config);
    trace_ = w_.peak_rps > 0
                 ? generator.GenerateBursty(w_.rps, w_.peak_rps, w_.period_s, /*sharpness=*/2.0)
                 : generator.Generate();
  }

  flowserve::EngineConfig EngineFor(flowserve::EngineRole role) const {
    flowserve::EngineConfig config;
    config.model = model::ModelSpec::Tiny1B();
    config.parallelism = {1, 1, 1};
    config.role = role;
    config.kv_block_capacity_override = w_.kv_blocks;
    return config;
  }

  void BuildFleet() {
    int per_je = w_.colocated + w_.prefill + w_.decode;
    int tes = w_.je_replicas * per_je;
    bool chaos = w_.faults[0] != '\0';
    hw::ClusterConfig cluster_config;
    // One NPU per tiny TE; chaos runs keep a spare machine for replacements.
    cluster_config.num_machines = (tes + 7) / 8 + (chaos ? 1 : 0);
    cluster_config.machines_per_scaleup_domain = std::max(4, cluster_config.num_machines);
    cluster_ = std::make_unique<hw::Cluster>(&sim_, cluster_config);
    transfer_ =
        std::make_unique<distflow::TransferEngine>(&sim_, cluster_.get(), distflow::DistFlowConfig{});
    ctrl::CtrlConfig ctrl_config;
    ctrl_config.replicas = w_.ctrl_replicas;
    ctrl_config.quorum = w_.ctrl_replicas / 2 + 1;
    if (w_.ctrl_replicas > 1) {
      ctrl_config.replication_latency = MsToNs(1);
    }
    log_ = std::make_unique<ctrl::ControlLog>(&sim_, ctrl_config);
    cm_ = std::make_unique<serving::ClusterManager>(&sim_, cluster_.get(), transfer_.get(),
                                                    serving::ScalingOptimizations{},
                                                    serving::ScalingLatencyModel{}, log_.get());
    serving::JeConfig je_config;
    je_config.policy = serving::SchedulingPolicy::kCombined;
    for (int r = 0; r < w_.je_replicas; ++r) {
      jes_.push_back(std::make_unique<serving::JobExecutor>(
          &sim_, je_config, serving::PdHeatmap::Default(), serving::MakeOraclePredictor()));
      // Also registers the JE's TE-failure handler with the CM.
      jes_.back()->AttachControl(log_.get(), cm_.get());
    }

    std::vector<distflow::EndpointId> endpoints;
    for (auto& je : jes_) {
      auto add = [&](flowserve::EngineRole role) {
        int64_t a = HostNs();
        auto te = cm_->CreateReadyTe(EngineFor(role));
        create_te_ns_.Add(static_cast<double>(HostNs() - a));
        if (!te.ok()) {
          std::fprintf(stderr, "perfbench: TE creation failed: %s\n",
                       te.status().ToString().c_str());
          std::exit(1);
        }
        endpoints.push_back((*te)->id());
        if (role == flowserve::EngineRole::kColocated) {
          je->AddColocatedTe(*te);
        } else if (role == flowserve::EngineRole::kPrefillOnly) {
          je->AddPrefillTe(*te);
        } else {
          je->AddDecodeTe(*te);
        }
      };
      for (int i = 0; i < w_.colocated; ++i) add(flowserve::EngineRole::kColocated);
      for (int i = 0; i < w_.prefill; ++i) add(flowserve::EngineRole::kPrefillOnly);
      for (int i = 0; i < w_.decode; ++i) add(flowserve::EngineRole::kDecodeOnly);
    }
    int64_t a = HostNs();
    if (!transfer_->LinkCluster(endpoints, nullptr).ok()) {
      std::fprintf(stderr, "perfbench: LinkCluster failed\n");
      std::exit(1);
    }
    sim_.Run();  // settle link setup
    link_s_ = HostSeconds(HostNs() - a);

    if (w_.je_replicas > 1) {
      serving::RouteConfig route;
      route.policy = "p2c";
      route.seed = seed_;
      route.hedge_floor = MsToNs(1500);
      route.retry_budget = true;
      route.eject_consecutive_errors = 3;
      frontend_ = std::make_unique<serving::Frontend>(&sim_, route);
      for (auto& je : jes_) {
        frontend_->RegisterServingJe(kModelName, je.get());
      }
    }
    if (chaos) {
      // Warm replacements (pre-warmed pods/TEs, weights already in DRAM), each
      // handed to the JE replica that currently has the fewest TEs.
      flowserve::EngineConfig engine = EngineFor(flowserve::EngineRole::kColocated);
      cm_->ReservePrewarmedPods(16);
      cm_->ReservePrewarmedTes(16);
      for (int m = 0; m < cluster_->num_machines(); ++m) {
        cluster_->machine(m)->page_cache().Insert(engine.model.name, engine.model.WeightBytes(),
                                                  sim_.Now());
      }
      cm_->SetReplacementPolicy(serving::ScaleRequest{engine}, [this](serving::TaskExecutor* te) {
        if (te == nullptr) {
          return;
        }
        serving::JobExecutor* target = jes_.front().get();
        for (auto& je : jes_) {
          if (je->colocated_count() < target->colocated_count()) {
            target = je.get();
          }
        }
        target->AddColocatedTe(te);
      });
      injector_ = std::make_unique<faults::FaultInjector>(&sim_, cm_.get(), seed_);
      for (auto& je : jes_) {
        injector_->RegisterJobExecutor(je.get());
      }
      auto plan = faults::FaultInjector::ParseSchedule(w_.faults);
      if (!plan.ok()) {
        std::fprintf(stderr, "perfbench: fault plan: %s\n", plan.status().ToString().c_str());
        std::exit(1);
      }
      for (auto& event : *plan) {
        event.time += sim_.Now();
      }
      injector_->ScheduleAll(*plan);
    }
    // Set-up advanced sim time (link setup); arrivals start from here.
    t0_ = sim_.Now();
    for (auto& spec : trace_) {
      spec.arrival += t0_;
    }
  }

  void ScheduleArrival(size_t i) {
    sim_.ScheduleAt(trace_[i].arrival, [this, i] { Arrive(i); });
  }

  void Arrive(size_t i) {
    const size_t n = trace_.size();
    if (i == n / 2) {
      mid_arrival_ns_ = HostNs();
    }
    if (i + 1 == n) {
      last_arrival_ns_ = HostNs();
    }
    const workload::RequestSpec& spec = trace_[i];
    serving::ResponseHandler handler;
    handler.on_first_token = [this, i](const flowserve::Sequence& seq) {
      if (first_token_[i] < 0) {
        first_token_[i] = seq.first_token_time;
      }
    };
    handler.on_complete = [this, i](const flowserve::Sequence& seq) {
      if (first_token_[i] < 0) {
        first_token_[i] = seq.first_token_time;
      }
      Terminate(i, Outcome::kCompleted, seq.finish_time);
    };
    handler.on_error = [this, i](const Status&) { Terminate(i, Outcome::kErrored, sim_.Now()); };
    if (frontend_ != nullptr) {
      serving::ChatRequest request;
      request.model = kModelName;
      request.spec = spec;
      int64_t a = traced_ ? HostNs() : 0;
      Status status = frontend_->ChatCompletion(request, std::move(handler));
      if (traced_) {
        chat_ns_.Add(static_cast<double>(HostNs() - a));
      }
      if (!status.ok()) {
        Terminate(i, Outcome::kRejected, sim_.Now());
      }
    } else {
      int64_t a = traced_ ? HostNs() : 0;
      jes_.front()->HandleRequest(spec, std::move(handler));
      if (traced_) {
        dispatch_ns_.Add(static_cast<double>(HostNs() - a));
      }
    }
    if (i + 1 < n) {
      ScheduleArrival(i + 1);
    }
  }

  void Terminate(size_t i, Outcome outcome, TimeNs when) {
    if (outcome_[i] != Outcome::kOpen) {
      ++double_terminations_;
      return;
    }
    outcome_[i] = outcome;
    done_[i] = when;
    if (++terminated_ == trace_.size()) {
      stop_ = true;
    }
  }

  template <bool kTraced>
  void RunLoop() {
    while (!stop_) {
      if constexpr (kTraced) {
        int64_t a = HostNs();
        bool fired = sim_.Step();
        int64_t b = HostNs();
        if (!fired) {
          break;
        }
        step_ns_.Add(static_cast<double>(b - a));
        pending_peak_ = std::max(pending_peak_, sim_.PendingEvents());
      } else {
        if (!sim_.Step()) {
          break;
        }
      }
    }
  }

  const Workload& w_;
  uint64_t seed_;
  double scale_;
  bool traced_;

  // Declaration order is teardown order in reverse: the control log outlives
  // the CM and JEs (they detach from it), the simulator outlives everything.
  sim::Simulator sim_;
  std::unique_ptr<hw::Cluster> cluster_;
  std::unique_ptr<distflow::TransferEngine> transfer_;
  std::unique_ptr<ctrl::ControlLog> log_;
  std::unique_ptr<serving::ClusterManager> cm_;
  std::vector<std::unique_ptr<serving::JobExecutor>> jes_;
  std::unique_ptr<serving::Frontend> frontend_;
  std::unique_ptr<faults::FaultInjector> injector_;

  std::vector<workload::RequestSpec> trace_;
  std::vector<TimeNs> first_token_;
  std::vector<TimeNs> done_;
  std::vector<Outcome> outcome_;
  size_t terminated_ = 0;
  int64_t double_terminations_ = 0;
  bool stop_ = false;
  TimeNs t0_ = 0;
  TimeNs sim_end_ = 0;
  uint64_t events_ = 0;

  double generate_s_ = 0;
  double link_s_ = 0;
  double setup_s_ = 0;
  int64_t replay_start_ns_ = 0;
  int64_t replay_end_ns_ = 0;
  int64_t mid_arrival_ns_ = 0;
  int64_t last_arrival_ns_ = 0;
  double rss_before_mb_ = 0;
  double rss_after_mb_ = 0;

  SampleStats create_te_ns_;
  SampleStats dispatch_ns_;
  SampleStats chat_ns_;
  SampleStats step_ns_;
  size_t pending_peak_ = 0;
};

// Emits `"name": value` pairs of one flat JSON object.
class JsonOut {
 public:
  void Num(const char* name, double value) {
    std::printf("%s\"%s\": %.10g", sep_, name, value);
    sep_ = ", ";
  }
  void Str(const char* name, const std::string& value) {
    std::printf("%s\"%s\": \"%s\"", sep_, name, value.c_str());
    sep_ = ", ";
  }

 private:
  const char* sep_ = "";
};

void Bench::Report(double probe_s) const {
  const size_t n = trace_.size();
  int64_t completed = 0;
  int64_t errored = 0;
  int64_t rejected = 0;
  int64_t unterminated = 0;
  int64_t order_violations = 0;
  SampleStats ttft_ms;
  SampleStats tpot_ms;
  int64_t slo_met = 0;
  TimeNs last_done = 0;
  uint64_t fingerprint = 1469598103934665603ull;
  auto mix = [&fingerprint](uint64_t v) {
    fingerprint ^= v;
    fingerprint *= 1099511628211ull;
  };
  for (size_t i = 0; i < n; ++i) {
    const workload::RequestSpec& spec = trace_[i];
    mix(static_cast<uint64_t>(outcome_[i]));
    mix(static_cast<uint64_t>(first_token_[i]));
    mix(static_cast<uint64_t>(done_[i]));
    switch (outcome_[i]) {
      case Outcome::kOpen:
        ++unterminated;
        continue;
      case Outcome::kErrored:
        ++errored;
        break;
      case Outcome::kRejected:
        ++rejected;
        break;
      case Outcome::kCompleted:
        ++completed;
        break;
    }
    last_done = std::max(last_done, done_[i]);
    if (done_[i] < spec.arrival || done_[i] > sim_end_) {
      ++order_violations;
    }
    if (outcome_[i] != Outcome::kCompleted) {
      continue;
    }
    TimeNs first = first_token_[i];
    if (first < spec.arrival || first > done_[i]) {
      ++order_violations;
      continue;
    }
    double ttft = NsToMs(first - spec.arrival);
    double tpot = spec.decode_len > 1 ? NsToMs(done_[i] - first) /
                                            static_cast<double>(spec.decode_len - 1)
                                      : 0.0;
    ttft_ms.Add(ttft);
    tpot_ms.Add(tpot);
    if (ttft <= w_.ttft_limit_ms && tpot <= w_.tpot_limit_ms) {
      ++slo_met;
    }
  }
  mix(static_cast<uint64_t>(last_done - t0_));
  mix(events_);

  // Layer stats, summed over every TE the CM ever created.
  flowserve::EngineStats engine;
  rtc::RtcStats rtc;
  int64_t index_nodes = 0;
  for (const auto& te : cm_->tes()) {
    const flowserve::EngineStats& s = te->engine().stats();
    engine.steps += s.steps;
    engine.prefill_tokens_processed += s.prefill_tokens_processed;
    engine.decode_tokens_generated += s.decode_tokens_generated;
    engine.reused_tokens += s.reused_tokens;
    engine.preemptions += s.preemptions;
    engine.npu_busy += s.npu_busy;
    rtc::RtcMaster& master = te->engine().rtc(0);
    const rtc::RtcStats& r = master.stats();
    rtc.matched_tokens += r.matched_tokens;
    rtc.requested_tokens += r.requested_tokens;
    rtc.evicted_blocks += r.evicted_blocks;
    rtc.swapped_out_blocks += r.swapped_out_blocks;
    rtc.discarded_blocks += r.discarded_blocks;
    rtc.populates += r.populates;
    index_nodes += static_cast<int64_t>(master.index_nodes());
  }
  serving::JeStats je;
  for (const auto& j : jes_) {
    const serving::JeStats& s = j->stats();
    je.requests += s.requests;
    je.retries += s.retries;
    je.errors += s.errors;
    je.locality_decisions += s.locality_decisions;
    je.locality_hits += s.locality_hits;
    je.je_failovers += s.je_failovers;
  }
  const serving::ClusterManagerStats& cm = cm_->stats();

  // Correctness: every request terminates at most once, the outcome counts
  // add up, times are causally ordered, and the library's own counters agree
  // with what the benchmark observed.
  std::string errors;
  auto check = [&errors](bool ok, const char* what) {
    if (!ok) {
      errors += errors.empty() ? what : std::string("; ") + what;
    }
  };
  int64_t submitted = static_cast<int64_t>(n);
  check(double_terminations_ == 0, "request terminated twice");
  check(completed + errored + rejected + unterminated == submitted, "outcomes do not add up");
  check(static_cast<int64_t>(terminated_) == submitted - unterminated, "termination count");
  check(order_violations == 0, "arrival <= first token <= completion <= end violated");
  if (frontend_ != nullptr) {
    const serving::FrontendStats& fe = frontend_->stats();
    check(fe.requests == submitted, "frontend request count");
    check(fe.rejected_total() == rejected, "frontend rejection count");
    check(fe.requests == fe.chat_dispatched + fe.rejected_total(), "frontend accounting");
    check(fe.errors == errored, "frontend error count");
  } else {
    check(je.requests == submitted, "JE request count");
    check(je.errors == errored, "JE error count");
    check(rejected == 0, "rejection without a frontend");
  }

  double replay_s = HostSeconds(replay_end_ns_ - replay_start_ns_);
  double sim_span_s = NsToS(sim_end_ - t0_);
  double te_count = static_cast<double>(cm_->tes().size());
  double req = static_cast<double>(std::max<size_t>(n, 1));

  std::printf("{");
  JsonOut out;
  out.Str("workload", w_.name);
  out.Num("seed", static_cast<double>(seed_));
  out.Num("traced", traced_ ? 1 : 0);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, fingerprint);
  out.Str("fingerprint", hex);
  out.Str("check_errors", errors);
  out.Num("submitted", static_cast<double>(submitted));
  out.Num("completed", static_cast<double>(completed));
  out.Num("errored", static_cast<double>(errored));
  out.Num("rejected", static_cast<double>(rejected));
  out.Num("unterminated", static_cast<double>(unterminated));

  // End to end. Host wall time first (run.py scales it by the probe), then
  // simulated time.
  out.Num("wall_us_per_req", replay_s * 1e6 / req);
  out.Num("wall_setup_s", setup_s_);
  out.Num("run_rss_mb", rss_after_mb_ - rss_before_mb_);
  out.Num("ok_frac", static_cast<double>(completed) / req);
  out.Num("sim_ttft_p50_ms", ttft_ms.p50());
  out.Num("sim_ttft_p99_ms", ttft_ms.p99());
  out.Num("sim_tpot_p50_ms", tpot_ms.p50());
  out.Num("sim_tpot_p99_ms", tpot_ms.p99());
  out.Num("sim_slo_attain", static_cast<double>(slo_met) / req);
  out.Num("replay_s", replay_s);
  out.Num("probe_s", probe_s);
  out.Num("sim_span_s", sim_span_s);

  // Per layer.
  double first_half = HostSeconds(mid_arrival_ns_ - replay_start_ns_) / static_cast<double>(n / 2);
  double second_half =
      HostSeconds(last_arrival_ns_ - mid_arrival_ns_) / static_cast<double>(n - 1 - n / 2);
  out.Num("sim.events_per_req", static_cast<double>(events_) / req);
  out.Num("sim.events_per_host_s", Ratio(static_cast<double>(events_), replay_s));
  out.Num("sim.step_ns.p50", step_ns_.p50());
  out.Num("sim.step_ns.p99", step_ns_.p99());
  out.Num("sim.pending_peak", static_cast<double>(pending_peak_));
  out.Num("sim.cost_growth", n >= 4 ? Ratio(second_half, first_half) : 0.0);

  out.Num("je.dispatch_ns.p50", dispatch_ns_.p50());
  out.Num("je.dispatch_ns.p99", dispatch_ns_.p99());
  out.Num("je.dispatch_share", Ratio(dispatch_ns_.sum() * 1e-9, replay_s));
  out.Num("je.locality_hit_frac",
          Ratio(static_cast<double>(je.locality_hits), static_cast<double>(je.locality_decisions)));
  out.Num("je.locality_hits", static_cast<double>(je.locality_hits));
  out.Num("je.locality_decisions", static_cast<double>(je.locality_decisions));
  out.Num("je.retries", static_cast<double>(je.retries));
  out.Num("je.errors", static_cast<double>(je.errors));

  serving::FrontendStats fe = frontend_ != nullptr ? frontend_->stats() : serving::FrontendStats{};
  out.Num("frontend.chat_ns.p50", chat_ns_.p50());
  out.Num("frontend.chat_ns.p99", chat_ns_.p99());
  out.Num("frontend.chat_share", Ratio(chat_ns_.sum() * 1e-9, replay_s));
  for (int r = 0; r < serving::kNumRejectReasons; ++r) {
    std::string name = "frontend.rejected." + std::string(serving::RejectReasonToString(
                                                  static_cast<serving::RejectReason>(r)));
    out.Num(name.c_str(), static_cast<double>(fe.rejected_by_reason[r]));
  }
  out.Num("frontend.hedges", static_cast<double>(fe.hedges_launched));
  out.Num("frontend.hedge_wins", static_cast<double>(fe.hedge_wins));
  out.Num("frontend.ejections", static_cast<double>(fe.ejections));

  out.Num("engine.steps_per_req", static_cast<double>(engine.steps) / req);
  out.Num("engine.decode_batch_mean", Ratio(static_cast<double>(engine.decode_tokens_generated),
                                            static_cast<double>(engine.steps)));
  out.Num("engine.prefill_reuse_frac",
          Ratio(static_cast<double>(engine.reused_tokens),
                static_cast<double>(engine.reused_tokens + engine.prefill_tokens_processed)));
  out.Num("engine.preemptions", static_cast<double>(engine.preemptions));
  out.Num("engine.npu_busy_frac", Ratio(NsToS(engine.npu_busy), te_count * sim_span_s));

  out.Num("rtc.token_hit_frac", rtc.TokenHitRate());
  out.Num("rtc.evicted_blocks", static_cast<double>(rtc.evicted_blocks));
  out.Num("rtc.swapped_out_blocks", static_cast<double>(rtc.swapped_out_blocks));
  out.Num("rtc.discarded_blocks", static_cast<double>(rtc.discarded_blocks));
  out.Num("rtc.populates", static_cast<double>(rtc.populates));
  out.Num("rtc.index_nodes", static_cast<double>(index_nodes));

  const distflow::DistFlowStats& df = transfer_->stats();
  out.Num("distflow.transfers", static_cast<double>(df.transfers));
  out.Num("distflow.bytes_per_req", static_cast<double>(df.bytes_moved) / req);
  out.Num("distflow.rejected", static_cast<double>(df.rejected));
  out.Num("distflow.link_s", link_s_);

  out.Num("cm.create_te_ns.p50", create_te_ns_.p50());
  out.Num("cm.detections", static_cast<double>(cm.detections));
  out.Num("cm.replacements", static_cast<double>(cm.replacements));
  out.Num("cm.mttr_ms", cm.mean_mttr_ms());
  out.Num("cm.lost_requests", static_cast<double>(cm.lost_requests));

  out.Num("ctrl.records_per_req", static_cast<double>(log_->next_seq()) / req);
  out.Num("ctrl.failovers", static_cast<double>(cm.cm_failovers + je.je_failovers));

  faults::FaultInjectorStats fi = injector_ != nullptr ? injector_->stats() : faults::FaultInjectorStats{};
  out.Num("faults.injected", static_cast<double>(fi.injected));
  out.Num("faults.skipped", static_cast<double>(fi.skipped));

  out.Num("workload.generate_s", generate_s_);
  std::printf("}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: ds_perfbench --workload=NAME --seed=N [--traced] [--scale=F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0;
  bool have_seed = false;
  double scale = 1.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto flag = [&arg](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    char* end = nullptr;
    if (arg == "--traced") {
      traced = true;
    } else if (const char* w = flag("--workload=")) {
      name = w;
    } else if (const char* n = flag("--seed=")) {
      seed = std::strtoull(n, &end, 10);
      have_seed = *n != '\0' && *end == '\0';
      if (!have_seed) return Usage();
    } else if (const char* f = flag("--scale=")) {
      scale = std::strtod(f, &end);
      if (*f == '\0' || *end != '\0' || !(scale > 0.0 && scale <= 1.0)) return Usage();
    } else {
      return Usage();
    }
  }
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr || !have_seed) {
    return Usage();
  }
  double probe_before = ProbeSeconds();
  Bench bench(*workload, seed, scale, traced);
  bench.Setup();
  bench.Replay();
  bench.Report(0.5 * (probe_before + ProbeSeconds()));
  // Skip tearing down the simulated cluster: nothing is measured after the
  // report, and the destructors of a large replay cost seconds.
  std::_Exit(0);
}
