#include "serving/autoscaler.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/time_units.h"
#include "serving/cluster_manager.h"
#include "serving/job_executor.h"
#include "serving/task_executor.h"

namespace deepserve::serving {

namespace {

// Queue-depth thresholding: scale-up takes precedence over scale-down, and
// at most one scale-up is in flight (pending_scale_ups == 0).
class ReactivePolicy final : public ScalePolicy {
 public:
  explicit ReactivePolicy(const AutoscalerConfig& config) : config_(config) {}

  std::string_view name() const override { return "reactive"; }

  ScaleDecision Tick(const ScaleSignals& s) override {
    ScaleDecision d;
    if (s.live_tes <= 0) {
      return d;
    }
    // Exact average comparison: total vs. threshold * live, never the
    // integer floor of total / live (which under-reports load).
    const bool up_trigger = s.total_queue_depth >= config_.scale_up_queue_depth * s.live_tes;
    const bool down_trigger =
        s.total_queue_depth <= config_.scale_down_queue_depth * s.live_tes;
    if (up_trigger && s.live_tes < config_.max_tes && s.pending_scale_ups == 0) {
      d.scale_up = 1;
    } else if (down_trigger && s.live_tes > config_.min_tes) {
      d.scale_down = 1;
    }
    return d;
  }

 private:
  AutoscalerConfig config_;
};

// EWMA + linear-trend forecast of the arrival rate, evaluated one scale-up
// lead time ahead: a scale-up launched on this tick delivers its TE right
// when the forecast load materializes. Capacity target = forecast/mu +
// headroom, where mu starts at the configured per-TE throughput prior and is
// raised to the best per-TE completion rate actually observed.
class PredictivePolicy final : public ScalePolicy {
 public:
  explicit PredictivePolicy(const AutoscalerConfig& config) : config_(config) {}

  std::string_view name() const override { return "predictive"; }

  ScaleDecision Tick(const ScaleSignals& s) override {
    ScaleDecision d;
    double dt = NsToS(s.tick_interval);
    if (dt <= 0.0) {
      return d;
    }
    if (!have_prev_) {
      have_prev_ = true;
      prev_admitted_ = s.admitted_requests;
      prev_completed_ = s.completed_requests;
      return d;
    }
    double sample = static_cast<double>(s.admitted_requests - prev_admitted_) / dt;
    double completion_rate = static_cast<double>(s.completed_requests - prev_completed_) / dt;
    prev_admitted_ = s.admitted_requests;
    prev_completed_ = s.completed_requests;

    // Score every past forecast whose target time has arrived against the
    // rate actually observed now (the last one wins the tick's sample).
    while (!forecasts_.empty() && forecasts_.front().first <= s.now) {
      d.forecast_abs_err = std::abs(forecasts_.front().second - sample);
      forecasts_.pop_front();
    }

    if (!have_ewma_) {
      have_ewma_ = true;
      ewma_ = sample;
    } else {
      ewma_ = config_.ewma_alpha * sample + (1.0 - config_.ewma_alpha) * ewma_;
    }
    // Trend over slope_window, not tick-to-tick: differencing consecutive
    // EWMA values of a Poisson sample stream amplifies noise by 1/dt.
    history_.push_back({s.now, ewma_});
    while (history_.size() > 1 && history_.front().first < s.now - config_.slope_window) {
      history_.pop_front();
    }
    double slope = 0.0;
    if (history_.back().first > history_.front().first) {
      slope = (history_.back().second - history_.front().second) /
              NsToS(history_.back().first - history_.front().first);
    }
    // Forecast at now + lead (+ one tick: the decision executes next tick at
    // the earliest under the in-flight cap).
    double lead_s = NsToS(s.scale_up_lead) + dt;
    double forecast = std::max(0.0, ewma_ + slope * lead_s);
    d.forecast_rps = forecast;
    forecasts_.push_back({s.now + s.scale_up_lead, forecast});

    if (s.live_tes > 0 && completion_rate > 0.0) {
      mu_observed_ = std::max(mu_observed_, completion_rate / s.live_tes);
    }
    double mu = std::max(config_.te_capacity_rps, mu_observed_);
    if (mu <= 0.0) {
      mu = 1.0;
    }

    // Capacity to serve the forecast rate AND clear today's backlog within
    // one lead time (a queue the forecast alone would never retire — the
    // arrival-rate term only covers new work).
    double backlog_rps =
        lead_s > 0.0 ? static_cast<double>(s.total_queue_depth) / lead_s : 0.0;
    int required = static_cast<int>(std::ceil((forecast + backlog_rps) / mu));
    // Headroom absorbs forecast error while the fleet is actually loaded; a
    // quiet trough (one TE covers the forecast) holds no spares — prewarmed
    // pools make the recovery cheap.
    int desired = required + (required > 1 ? config_.headroom_tes : 0);
    desired = std::clamp(desired, config_.min_tes, config_.max_tes);
    int effective = s.live_tes + s.pending_scale_ups;
    if (desired > effective) {
      d.scale_up = desired - effective;
      down_streak_ = 0;
    } else if (desired < s.live_tes &&
               s.total_queue_depth < config_.scale_up_queue_depth * (s.live_tes - 1)) {
      // Surplus capacity AND queues that would stay below the up-trigger even
      // after removing one TE, sustained: retire one TE per tick. The streak
      // stays armed (clamped, not reset) while the surplus persists, so the
      // post-crest decline sheds promptly but a momentary dip never drains.
      if (down_streak_ < config_.down_stable_ticks) {
        ++down_streak_;
      }
      if (down_streak_ >= config_.down_stable_ticks) {
        d.scale_down = 1;
      }
    } else {
      down_streak_ = 0;
    }
    return d;
  }

 private:
  AutoscalerConfig config_;
  bool have_prev_ = false;
  bool have_ewma_ = false;
  int64_t prev_admitted_ = 0;
  int64_t prev_completed_ = 0;
  double ewma_ = 0.0;
  std::deque<std::pair<TimeNs, double>> history_;  // (tick time, ewma)
  double mu_observed_ = 0.0;
  int down_streak_ = 0;
  std::deque<std::pair<TimeNs, double>> forecasts_;  // (target time, forecast)
};

// Scales on the per-tick SLO violation rate (TTFT + TBT + deadline misses
// over completions) instead of queue-depth proxies: queues measure pressure,
// violation rates measure harm.
class SloScalePolicy final : public ScalePolicy {
 public:
  explicit SloScalePolicy(const AutoscalerConfig& config) : config_(config) {}

  std::string_view name() const override { return "slo"; }

  ScaleDecision Tick(const ScaleSignals& s) override {
    ScaleDecision d;
    int64_t violations = s.ttft_violations + s.tbt_violations + s.deadline_misses;
    if (!have_prev_) {
      have_prev_ = true;
      prev_violations_ = violations;
      prev_completed_ = s.completed_requests;
      return d;
    }
    int64_t violation_delta = violations - prev_violations_;
    int64_t completed_delta = s.completed_requests - prev_completed_;
    prev_violations_ = violations;
    prev_completed_ = s.completed_requests;

    double denom = static_cast<double>(std::max<int64_t>(1, completed_delta + violation_delta));
    double rate = static_cast<double>(violation_delta) / denom;
    if (rate > config_.slo_scale_up_violation_rate &&
        s.live_tes + s.pending_scale_ups < config_.max_tes) {
      d.scale_up = 1;
      down_streak_ = 0;
    } else if (rate <= config_.slo_scale_down_violation_rate &&
               s.live_tes > config_.min_tes &&
               s.total_queue_depth <=
                   config_.scale_down_queue_depth * std::max(1, s.live_tes)) {
      if (++down_streak_ >= config_.down_stable_ticks) {
        d.scale_down = 1;
        down_streak_ = 0;
      }
    } else {
      down_streak_ = 0;
    }
    return d;
  }

 private:
  AutoscalerConfig config_;
  bool have_prev_ = false;
  int64_t prev_violations_ = 0;
  int64_t prev_completed_ = 0;
  int down_streak_ = 0;
};

}  // namespace

Result<std::unique_ptr<ScalePolicy>> MakeScalePolicy(const AutoscalerConfig& config) {
  if (config.policy == "reactive") {
    return std::unique_ptr<ScalePolicy>(std::make_unique<ReactivePolicy>(config));
  }
  if (config.policy == "predictive") {
    return std::unique_ptr<ScalePolicy>(std::make_unique<PredictivePolicy>(config));
  }
  if (config.policy == "slo") {
    return std::unique_ptr<ScalePolicy>(std::make_unique<SloScalePolicy>(config));
  }
  return InvalidArgumentError("unknown scale policy \"" + config.policy +
                              "\" (reactive|predictive|slo)");
}

// ---------------------------------------------------------------------------
// Autoscaler mechanism.
// ---------------------------------------------------------------------------

Autoscaler::Autoscaler(sim::Simulator* sim, ClusterManager* manager, JobExecutor* je,
                       AutoscalerConfig config, ScaleRequest template_request)
    : sim_(sim), cm_(manager), je_(je), config_(std::move(config)),
      template_(std::move(template_request)) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK(cm_ != nullptr);
  DS_CHECK(je_ != nullptr);
  auto policy = MakeScalePolicy(config_);
  DS_CHECK(policy.ok()) << policy.status().ToString();
  policy_ = std::move(policy).value();
}

Autoscaler::~Autoscaler() {
  *alive_ = false;
  tick_.Stop();
}

void Autoscaler::Start() {
  running_ = true;
  tick_.Start(sim_, config_.check_interval, [this] { Tick(); });
}

void Autoscaler::Stop() {
  running_ = false;
  tick_.Stop();
}

int Autoscaler::live_tes() const {
  int live = 0;
  for (const auto& te : cm_->tes()) {
    if (te->ready() && te->role() == flowserve::EngineRole::kColocated) {
      ++live;
    }
  }
  return live;
}

int Autoscaler::draining_tes() const {
  int draining = 0;
  for (const auto& te : cm_->tes()) {
    if (te->draining() && te->role() == flowserve::EngineRole::kColocated) {
      ++draining;
    }
  }
  return draining;
}

ScaleSignals Autoscaler::GatherSignals() const {
  ScaleSignals s;
  s.now = sim_->Now();
  s.tick_interval = config_.check_interval;
  s.pending_scale_ups = pending_scale_ups_;
  for (const auto& te : cm_->tes()) {
    if (te->role() != flowserve::EngineRole::kColocated) {
      continue;
    }
    if (te->ready()) {
      ++s.live_tes;
      s.total_queue_depth += te->queue_depth();
    } else if (te->draining()) {
      ++s.draining_tes;
    }
    // Cumulative counters aggregate over every colocated TE regardless of
    // state: stats survive the TE's death, keeping the series monotone.
    const flowserve::EngineStats& es = te->engine().stats();
    s.completed_requests += es.completed;
    s.ttft_violations += es.ttft_violations;
    s.tbt_violations += es.tbt_violations;
    s.deadline_misses += es.deadline_misses;
  }
  s.admitted_requests = admission_fn_ ? admission_fn_() : je_->stats().requests;
  s.scale_up_lead = cm_->EstimateScaleUpLead(template_);
  GenerationChoice choice = cm_->PreviewPlacement(template_.engine);
  s.scale_up_generation = choice.generation;
  s.scale_up_tokens_per_dollar = choice.tokens_per_dollar;
  s.scale_up_feasible = choice.feasible;
  return s;
}

void Autoscaler::Tick() {
  if (!cm_->leader_up()) {
    // The autoscaler is control-plane brains: with the CM leader down it can
    // neither place nor stop TEs. Ticks resume after failover.
    return;
  }
  ++stats_.ticks;
  EnsureMetrics();
  ScaleSignals signals = GatherSignals();
  if (m_live_ != nullptr) {
    m_live_->Set(static_cast<double>(signals.live_tes));
  }
  ScaleDecision decision = policy_->Tick(signals);
  if (decision.forecast_abs_err >= 0.0) {
    stats_.forecast_abs_err_sum += decision.forecast_abs_err;
    ++stats_.forecast_samples;
    if (m_forecast_err_ != nullptr) {
      m_forecast_err_->Add(decision.forecast_abs_err);
    }
  }

  int up = decision.scale_up;
  up = std::min(up, config_.max_concurrent_scale_ups - pending_scale_ups_);
  up = std::min(up, config_.max_tes - (signals.live_tes + pending_scale_ups_));
  for (int i = 0; i < up; ++i) {
    LaunchScaleUp();
  }
  for (int i = 0; i < decision.scale_down; ++i) {
    // Recount each iteration: draining victims left the live set already.
    if (live_tes() <= config_.min_tes || !ScaleDownOne()) {
      break;
    }
  }
}

void Autoscaler::LaunchScaleUp() {
  ++pending_scale_ups_;
  auto alive = alive_;
  Result<TeId> launched =
      cm_->ScaleUp(template_, [this, alive](TaskExecutor* te, const ScalingBreakdown&) {
        if (!*alive) {
          return;
        }
        --pending_scale_ups_;
        // te == nullptr: the pipeline was aborted (its provisioning TE was
        // crashed); the slot simply frees up for a later tick.
        if (te != nullptr && je_ != nullptr) {
          je_->AddColocatedTe(te);
          ++stats_.scale_ups_completed;
          if (m_scale_ups_ != nullptr) {
            m_scale_ups_->Inc();
          }
        }
      });
  if (!launched.ok()) {
    --pending_scale_ups_;  // e.g. cluster out of NPUs; try again next tick
    return;
  }
  ++stats_.scale_ups_launched;
}

TaskExecutor* Autoscaler::PickVictim(bool require_idle) const {
  TaskExecutor* victim = nullptr;
  for (const auto& te : cm_->tes()) {
    if (!te->ready() || te->role() != flowserve::EngineRole::kColocated) {
      continue;
    }
    if (require_idle) {
      // Historical rule: only a perfectly idle TE, highest id wins.
      if (te->queue_depth() == 0 && (victim == nullptr || te->id() > victim->id())) {
        victim = te.get();
      }
    } else {
      // Graceful drains can absorb in-flight work: least-loaded TE, ties
      // toward the highest (newest) id.
      if (victim == nullptr || te->queue_depth() < victim->queue_depth() ||
          (te->queue_depth() == victim->queue_depth() && te->id() > victim->id())) {
        victim = te.get();
      }
    }
  }
  return victim;
}

bool Autoscaler::ScaleDownOne() {
  TaskExecutor* victim = PickVictim(/*require_idle=*/!config_.graceful_drain);
  if (victim == nullptr) {
    return false;
  }
  je_->RemoveTe(victim->id());
  if (!config_.graceful_drain) {
    DS_CHECK_OK(cm_->StopTe(victim->id()));
    ++stats_.legacy_stops;
    RecordScaleDown(victim, /*drained=*/false);
    return true;
  }
  BeginDrain(victim);
  return true;
}

void Autoscaler::BeginDrain(TaskExecutor* victim) {
  ++stats_.drains_started;
  const TeId id = victim->id();
  if (obs::Tracer* t = sim_->tracer()) {
    t->AsyncBegin(sim_->Now(), TracePid(), static_cast<uint64_t>(id), "te.drain",
                  {obs::Arg("te", static_cast<int64_t>(id)),
                   obs::Arg("inflight", victim->queue_depth())});
  }
  auto alive = alive_;
  victim->StartDrain([this, alive, id] {
    if (*alive) {
      FinishDrain(id);
    }
  });
  if (config_.drain_timeout > 0) {
    drain_timeouts_[id] = sim_->ScheduleAfter(config_.drain_timeout, [this, alive, id] {
      if (*alive) {
        OnDrainTimeout(id);
      }
    });
  }
}

void Autoscaler::FinishDrain(TeId id) {
  if (!cm_->leader_up()) {
    // The drain completed while the control leader was down: StopTe would be
    // rejected. Park the completion; the new leader finishes the retirement.
    auto alive = alive_;
    cm_->DeferUntilRecovery([this, alive, id] {
      if (*alive) {
        FinishDrain(id);
      }
    });
    return;
  }
  auto timeout = drain_timeouts_.find(id);
  if (timeout != drain_timeouts_.end()) {
    sim_->Cancel(timeout->second);
    drain_timeouts_.erase(timeout);
  }
  TaskExecutor* te = cm_->te(id);
  if (te == nullptr || te->state() != TeState::kDraining) {
    // Crashed or externally stopped between the idle notification and now;
    // the failure path owns NPU release and re-dispatch.
    ++stats_.drains_aborted;
    return;
  }
  DurationNs drain_ns = sim_->Now() - te->drain_started();
  stats_.drain_ns_total += drain_ns;
  stats_.drained_seqs += te->drain_inflight();
  ++stats_.drains_completed;
  DS_CHECK_OK(cm_->StopTe(id));
  RecordScaleDown(te, /*drained=*/true);
  EnsureMetrics();
  if (m_drained_seqs_ != nullptr) {
    m_drained_seqs_->Inc(te->drain_inflight());
  }
  if (m_drain_ms_ != nullptr) {
    m_drain_ms_->Add(NsToMs(drain_ns));
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->AsyncEnd(sim_->Now(), TracePid(), static_cast<uint64_t>(id), "te.drain");
  }
}

void Autoscaler::OnDrainTimeout(TeId id) {
  drain_timeouts_.erase(id);
  TaskExecutor* te = cm_->te(id);
  if (te == nullptr || te->state() != TeState::kDraining) {
    ++stats_.drains_aborted;  // already crashed; nothing left to force
    return;
  }
  ++stats_.drain_timeouts;
  EnsureMetrics();
  if (m_drain_timeouts_ != nullptr) {
    m_drain_timeouts_->Inc();
  }
  // Force the retirement: synchronous-detection kill, so registered failure
  // handlers (the JE) immediately re-dispatch whatever refused to finish —
  // exactly-once termination is preserved through the retry path.
  auto killed = cm_->KillTe(id);
  (void)killed;
}

void Autoscaler::RecordScaleDown(TaskExecutor* te, bool drained) {
  (void)te;
  (void)drained;
  cm_->RecordAutoscalerScaleDown();
  EnsureMetrics();
  if (m_scale_downs_ != nullptr) {
    m_scale_downs_->Inc();
  }
}

int Autoscaler::TracePid() {
  obs::Tracer* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return -1;
  }
  if (trace_pid_ < 0) {
    trace_pid_ = tracer->NewTrack("autoscaler");
    tracer->SetLaneName(trace_pid_, 0, "control");
  }
  return trace_pid_;
}

void Autoscaler::EnsureMetrics() {
  obs::MetricsRegistry* metrics = sim_->metrics();
  if (metrics == nullptr || m_scale_ups_ != nullptr) {
    return;
  }
  m_scale_ups_ = metrics->counter("autoscaler.scale_ups");
  m_scale_downs_ = metrics->counter("autoscaler.scale_downs");
  m_drained_seqs_ = metrics->counter("autoscaler.drained_seqs");
  m_drain_timeouts_ = metrics->counter("autoscaler.drain_timeouts");
  m_live_ = metrics->gauge("autoscaler.live_tes");
  m_drain_ms_ = metrics->stats("autoscaler.drain_ms");
  m_forecast_err_ = metrics->stats("autoscaler.forecast_err_rps");
}

}  // namespace deepserve::serving
