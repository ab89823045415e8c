// Autoscaler: the control loop that sizes a Job Executor's colocated TE group
// (§6). Split from ClusterManager into mechanism + pluggable policy,
// mirroring the engine's sched/ layer:
//
//   * ScalePolicy — a pure decision function: per tick it sees aggregated
//     ScaleSignals (queue depths, admission/completion/SLO-violation
//     counters, the current scale-up lead time) and returns how many TEs to
//     add or retire.
//       "reactive"   instantaneous average queue depth vs. thresholds
//                    (exact: total vs. threshold*live).
//       "predictive" EWMA + trend forecast of the arrival rate, evaluated at
//                    now + the scaling pipeline's current lead time, so
//                    capacity *arrives* when the load does (Fig. 8's point);
//                    keeps headroom_tes of spare capacity warm.
//       "slo"        scales on observed TTFT/TBT/deadline violation rates
//                    from EngineStats instead of queue proxies.
//   * Autoscaler — the mechanism: gathers signals, executes decisions through
//     ClusterManager::ScaleUp, and retires TEs gracefully (kDraining: stop
//     admitting, finish in-flight work, then stop) with drain_ns /
//     drained_seqs / forecast-error metrics in obs.
#ifndef DEEPSERVE_SERVING_AUTOSCALER_H_
#define DEEPSERVE_SERVING_AUTOSCALER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/time_units.h"
#include "flowserve/engine_config.h"
#include "hw/link.h"
#include "serving/job.h"
#include "sim/simulator.h"

namespace deepserve::serving {

class ClusterManager;
class JobExecutor;
class TaskExecutor;
struct ScalingBreakdown;

struct ScaleRequest {
  flowserve::EngineConfig engine;
  // NPU-fork source; kInvalidTe = local load (DRAM/SSD via PCIe).
  TeId fork_source = kInvalidTe;
  hw::LinkType fork_link = hw::LinkType::kHccs;
};

struct AutoscalerConfig {
  DurationNs check_interval = SToNs(2.0);
  int64_t scale_up_queue_depth = 16;   // avg queue depth triggering scale-up
  int64_t scale_down_queue_depth = 1;  // below this (and >min), shed a TE
  int min_tes = 1;
  int max_tes = 64;

  std::string policy = "reactive";  // reactive | predictive | slo

  // Scale-down drains its victim (finish in-flight work) before stopping it.
  // Safety valve: a drain still unfinished after this long is force-killed
  // (KillTe, synchronous detection, so the JE re-dispatches the stragglers).
  // 0 = wait forever.
  DurationNs drain_timeout = SToNs(120);

  // -- predictive knobs -------------------------------------------------------
  double te_capacity_rps = 4.0; // prior on one TE's throughput; refined online
  int headroom_tes = 1;         // spare TEs kept above the forecast requirement
  int down_stable_ticks = 6;    // surplus ticks required before a scale-down

  // INVALID_ARGUMENT unless the policy is known (MakeScalePolicy), 1 <=
  // min_tes <= max_tes, check_interval > 0, headroom_tes >= 0 and
  // drain_timeout >= 0. The Autoscaler constructor still DS_CHECKs the
  // policy; callers taking a config from outside validate it first.
  [[nodiscard]] Status Validate() const;
};

// What a policy sees each tick. Counters are cumulative and monotone —
// aggregated over every colocated TE ever registered, alive or not, so a
// crash between ticks never makes a delta go negative.
struct ScaleSignals {
  TimeNs now = 0;
  DurationNs tick_interval = 0;
  int live_tes = 0;  // ready colocated TEs
  int pending_scale_ups = 0;
  int64_t total_queue_depth = 0;  // waiting+running over live TEs
  int64_t admitted_requests = 0;  // cumulative JE admissions
  int64_t completed_requests = 0;
  int64_t ttft_violations = 0;
  int64_t tbt_violations = 0;
  int64_t deadline_misses = 0;
  // ClusterManager::EstimateScaleUpLead for the template request: how long a
  // scale-up started now would take to deliver ready capacity.
  DurationNs scale_up_lead = 0;
};

struct ScaleDecision {
  int scale_up = 0;
  int scale_down = 0;
  // Predictive only: |past forecast for ~now − observed rate| once a
  // forecast's target time has arrived (< 0 = no sample this tick).
  double forecast_abs_err = -1.0;
};

class ScalePolicy {
 public:
  virtual ~ScalePolicy() = default;
  virtual std::string_view name() const = 0;
  virtual ScaleDecision Tick(const ScaleSignals& signals) = 0;
};

// Factory keyed on AutoscalerConfig::policy (reactive|predictive|slo).
[[nodiscard]] Result<std::unique_ptr<ScalePolicy>> MakeScalePolicy(const AutoscalerConfig& config);

struct AutoscalerStats {
  int64_t ticks = 0;
  int64_t scale_ups_launched = 0;
  int64_t scale_ups_completed = 0;
  int64_t drains_started = 0;
  int64_t drains_completed = 0;
  int64_t drains_aborted = 0;  // victim crashed/was stopped mid-drain
  int64_t drain_timeouts = 0;
  int64_t drained_seqs = 0;        // in-flight sequences drains waited out
  DurationNs drain_ns_total = 0;   // summed drain durations
  double forecast_abs_err_sum = 0.0;
  int64_t forecast_samples = 0;

  double mean_forecast_abs_err() const {
    return forecast_samples == 0 ? 0.0
                                 : forecast_abs_err_sum / static_cast<double>(forecast_samples);
  }
  double mean_drain_ms() const {
    return drains_completed == 0
               ? 0.0
               : NsToMs(drain_ns_total) / static_cast<double>(drains_completed);
  }
};

// The autoscaler mechanism. Owned by ClusterManager (StartAutoscaler) but
// usable standalone in tests. Live counts are recomputed from cluster state
// every time — never cached — so TEs crashing between ticks cannot make the
// autoscaler's view drift (the historical autoscaler_live_tes_ bug).
class Autoscaler {
 public:
  Autoscaler(sim::Simulator* sim, ClusterManager* manager, JobExecutor* je,
             AutoscalerConfig config, ScaleRequest template_request);
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  // First tick fires one check_interval from now. Keeps the event queue
  // non-empty until Stop(): drive the simulator with RunUntil.
  void Start();
  // Stops ticking. Drains already in progress still complete (and stop their
  // TE); pending scale-ups still land.
  void Stop();
  bool running() const { return running_; }

  // Recomputed from cluster state on every call.
  int live_tes() const;

  const AutoscalerStats& stats() const { return stats_; }
  const AutoscalerConfig& config() const { return config_; }

 private:
  void Tick();
  ScaleSignals GatherSignals() const;
  void LaunchScaleUp();
  bool ScaleDownOne();
  void BeginDrain(TaskExecutor* victim);
  void FinishDrain(TeId id);
  void OnDrainTimeout(TeId id);
  // Scale-down victim: the least-loaded ready colocated TE, ties broken
  // toward the highest id; nullptr when none is ready.
  TaskExecutor* PickVictim() const;
  void EnsureMetrics();

  sim::Simulator* sim_;
  ClusterManager* cm_;
  JobExecutor* je_;
  AutoscalerConfig config_;
  ScaleRequest template_;
  std::unique_ptr<ScalePolicy> policy_;

  sim::PeriodicTask tick_;
  bool running_ = false;
  int pending_scale_ups_ = 0;
  std::map<TeId, sim::EventId> drain_timeouts_;
  // Callbacks held by TEs / scheduled events outlive this object's lifetime
  // in principle; they check this token before touching `this`.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  AutoscalerStats stats_;
  obs::LazyTrack track_{"autoscaler", {"control"}};
  obs::Counter* m_scale_ups_ = nullptr;
  obs::Counter* m_scale_downs_ = nullptr;
  obs::Counter* m_drained_seqs_ = nullptr;
  obs::Counter* m_drain_timeouts_ = nullptr;
  obs::Gauge* m_live_ = nullptr;
  OnlineStats* m_drain_ms_ = nullptr;
  OnlineStats* m_forecast_err_ = nullptr;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_AUTOSCALER_H_
