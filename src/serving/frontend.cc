#include "serving/frontend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace deepserve::serving {

namespace {

// Shared retry budget: re-dispatch tokens earned per admitted request.
constexpr double kRetryRatio = 0.2;
// Completion samples a route needs before its p95 sets the hedge delay.
constexpr int64_t kHedgeMinSamples = 16;

}  // namespace

Frontend::Frontend(sim::Simulator* sim, RouteConfig config)
    : sim_(sim), config_(std::move(config)) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK_OK(config_.Validate());
  if (config_.retry_budget) {
    retry_budget_ = std::make_unique<RetryBudget>(kRetryRatio, config_.retry_floor);
  }
}

void Frontend::RegisterServingJe(const std::string& model_name, JobExecutor* je) {
  DS_CHECK(je != nullptr);
  ModelRoute& route = routes_[model_name];
  if (route.policy == nullptr) {
    route.policy = MakeRoutePolicy(config_).value();  // the ctor validated the policy
  }
  route.replicas.emplace_back(je, config_);
  if (retry_budget_ != nullptr) {
    je->SetRetryBudget(retry_budget_.get());
  }
}

size_t Frontend::je_count(const std::string& model_name) const {
  auto it = routes_.find(model_name);
  return it == routes_.end() ? 0 : it->second.replicas.size();
}

void Frontend::EnsureMetrics() {
  obs::MetricsRegistry* metrics = sim_->metrics();
  if (metrics == nullptr || m_requests_ != nullptr) {
    return;
  }
  m_requests_ = metrics->counter("frontend.requests");
  m_dispatched_ = metrics->counter("frontend.dispatched");
  m_errors_ = metrics->counter("frontend.errors");
  m_rejected_[static_cast<int>(RejectReason::kUnknownModel)] =
      metrics->counter("frontend.rejected_unknown_model");
  m_rejected_[static_cast<int>(RejectReason::kNoCapacity)] =
      metrics->counter("frontend.rejected_no_capacity");
  m_rejected_[static_cast<int>(RejectReason::kDeadline)] =
      metrics->counter("frontend.rejected_deadline");
  m_rejected_[static_cast<int>(RejectReason::kOverloadShed)] =
      metrics->counter("frontend.rejected_overload_shed");
  m_rejected_[static_cast<int>(RejectReason::kEjected)] =
      metrics->counter("frontend.rejected_ejected");
  m_hedges_ = metrics->counter("frontend.hedges");
  m_hedge_wins_ = metrics->counter("frontend.hedge_wins");
  m_hedge_cancels_ = metrics->counter("frontend.hedge_cancels");
  m_ejections_ = metrics->counter("frontend.ejections");
  m_readmissions_ = metrics->counter("frontend.readmissions");
}

Status Frontend::Reject(RejectReason reason, workload::RequestId id, Status status) {
  ++stats_.rejected_by_reason[static_cast<int>(reason)];
  if (obs::Counter* counter = m_rejected_[static_cast<int>(reason)]) {
    counter->Inc();
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fe.reject",
               {obs::Arg("req", static_cast<int64_t>(id)),
                obs::Arg("reason", RejectReasonToString(reason))});
  }
  return status;
}

std::vector<JeSnapshot> Frontend::BuildCandidates(ModelRoute& route, size_t exclude,
                                                  bool* ejected_capacity) const {
  std::vector<JeSnapshot> candidates;
  candidates.reserve(route.replicas.size());
  TimeNs now = sim_->Now();
  for (size_t i = 0; i < route.replicas.size(); ++i) {
    if (i == exclude) {
      continue;
    }
    const Replica& replica = route.replicas[i];
    int weight = replica.je->ReadyCapacityWeight();
    if (weight <= 0) {
      continue;
    }
    if (!replica.monitor.Eligible(now)) {
      if (ejected_capacity != nullptr) {
        *ejected_capacity = true;
      }
      continue;
    }
    candidates.push_back(JeSnapshot{i, weight, replica.outstanding});
  }
  return candidates;
}

Status Frontend::ChatCompletion(const ChatRequest& request, ResponseHandler handler) {
  ++stats_.requests;
  EnsureMetrics();
  if (m_requests_ != nullptr) {
    m_requests_->Inc();
  }
  if (request.deadline > 0 && sim_->Now() > request.deadline) {
    return Reject(RejectReason::kDeadline, request.spec.id,
                  DeadlineExceededError("request " + std::to_string(request.spec.id) +
                                        " arrived past its deadline"));
  }
  auto it = routes_.find(request.model);
  if (it == routes_.end() || it->second.replicas.empty()) {
    return Reject(RejectReason::kUnknownModel, request.spec.id,
                  NotFoundError("no serving JEs for model " + request.model));
  }
  ModelRoute& route = it->second;

  workload::RequestSpec spec = request.spec;
  if (request.priority >= 0) {
    spec.priority = request.priority;
  }
  if (request.deadline > 0) {
    // Thread the SLO all the way down: JE re-dispatch checks, engine
    // scheduling policies (EDF / shed), and per-sequence miss accounting all
    // read spec.deadline.
    spec.deadline = request.deadline;
  }

  bool ejected_capacity = false;
  std::vector<JeSnapshot> candidates =
      BuildCandidates(route, route.replicas.size(), &ejected_capacity);
  if (candidates.empty()) {
    if (ejected_capacity) {
      return Reject(RejectReason::kEjected, spec.id,
                    UnavailableError("every JE for " + request.model +
                                     " with ready TEs is outlier-ejected"));
    }
    return Reject(RejectReason::kNoCapacity, spec.id,
                  UnavailableError("no JE for " + request.model + " has ready TEs"));
  }

  RouteContext ctx{candidates, route.replicas.size(), spec.priority, 0, 0};
  for (const Replica& replica : route.replicas) {
    ctx.total_outstanding += replica.outstanding;
  }
  for (const JeSnapshot& candidate : candidates) {
    ctx.total_weight += candidate.weight;
  }
  RouteDecision decision = route.policy->Pick(ctx);
  if (decision.shed) {
    return Reject(RejectReason::kOverloadShed, spec.id,
                  ResourceExhaustedError("request " + std::to_string(spec.id) +
                                         " shed: class " + std::to_string(spec.priority) +
                                         " over pressure threshold"));
  }
  DS_CHECK_LT(decision.choice, candidates.size());
  size_t replica_index = candidates[decision.choice].index;

  ++stats_.chat_dispatched;
  if (m_dispatched_ != nullptr) {
    m_dispatched_->Inc();
  }
  if (retry_budget_ != nullptr) {
    retry_budget_->OnRequest();
  }
  auto flight = std::make_shared<Flight>();
  flight->spec = std::move(spec);
  flight->user = std::move(handler);
  flight->route = &route;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fe.route",
               {obs::Arg("req", static_cast<int64_t>(flight->spec.id)),
                obs::Arg("policy", route.policy->name()),
                obs::Arg("je", static_cast<int64_t>(replica_index))});
  }
  DispatchTo(route, replica_index, flight, /*branch=*/0);
  if (config_.hedging() && route.replicas.size() > 1) {
    ArmHedge(flight);
  }
  return Status::Ok();
}

void Frontend::DispatchTo(ModelRoute& route, size_t replica_index,
                          const std::shared_ptr<Flight>& flight, int branch) {
  Replica& replica = route.replicas[replica_index];
  replica.monitor.OnDispatch(sim_->Now());
  ++replica.outstanding;
  ++replica.dispatched;
  flight->branch_replica[branch] = replica_index;
  flight->branch_live[branch] = true;
  ++flight->live_branches;

  ResponseHandler dispatched;
  dispatched.on_first_token = [flight](const flowserve::Sequence& seq) {
    if (flight->terminated || flight->first_token_fired) {
      return;
    }
    flight->first_token_fired = true;
    if (flight->user.on_first_token) {
      flight->user.on_first_token(seq);
    }
  };
  dispatched.on_complete = [this, flight, branch,
                            dispatch_time = sim_->Now()](const flowserve::Sequence& seq) {
    OnBranchComplete(flight, branch, dispatch_time, seq);
  };
  dispatched.on_error = [this, flight, branch](const Status& status) {
    OnBranchError(flight, branch, status);
  };
  replica.je->HandleRequest(flight->spec, std::move(dispatched));
}

void Frontend::ArmHedge(const std::shared_ptr<Flight>& flight) {
  ModelRoute& route = *flight->route;
  DurationNs delay = config_.hedge_floor;
  if (route.latency.size() >= kHedgeMinSamples) {
    delay = std::max(delay, route.latency.Percentile(0.95));
  }
  sim_->ScheduleAfter(delay, [this, flight] { HedgeFire(flight); });
}

void Frontend::HedgeFire(const std::shared_ptr<Flight>& flight) {
  if (flight->terminated || flight->hedged || flight->live_branches == 0) {
    return;
  }
  ModelRoute& route = *flight->route;
  std::vector<JeSnapshot> candidates =
      BuildCandidates(route, flight->branch_replica[0], nullptr);
  if (candidates.empty()) {
    return;  // nowhere to hedge to — the primary stays the only branch
  }
  size_t replica_index = candidates[PickLeastLoaded(candidates)].index;
  flight->hedged = true;
  ++stats_.hedges_launched;
  if (m_hedges_ != nullptr) {
    m_hedges_->Inc();
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fe.hedge",
               {obs::Arg("req", static_cast<int64_t>(flight->spec.id)),
                obs::Arg("je", static_cast<int64_t>(replica_index))});
  }
  DispatchTo(route, replica_index, flight, /*branch=*/1);
}

void Frontend::CancelBranch(const std::shared_ptr<Flight>& flight, int branch) {
  flight->branch_live[branch] = false;
  --flight->live_branches;
  Replica& replica = flight->route->replicas[flight->branch_replica[branch]];
  // The JE drops the job without firing its handler and cancels the
  // engine-side sequence on every TE it touched, releasing KV pins — the
  // loser's tokens are reclaimed, never double-counted.
  size_t cancelled = replica.je->CancelRequest(flight->spec.id);
  --replica.outstanding;
  ++stats_.hedge_cancels;
  if (m_hedge_cancels_ != nullptr) {
    m_hedge_cancels_->Inc();
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "fe.hedge_cancel",
               {obs::Arg("req", static_cast<int64_t>(flight->spec.id)),
                obs::Arg("jobs", static_cast<int64_t>(cancelled))});
  }
}

void Frontend::OnBranchComplete(const std::shared_ptr<Flight>& flight, int branch,
                                TimeNs dispatch_time, const flowserve::Sequence& seq) {
  if (!flight->branch_live[branch]) {
    return;  // already cancelled or settled
  }
  flight->branch_live[branch] = false;
  --flight->live_branches;
  ModelRoute& route = *flight->route;
  Replica& replica = route.replicas[flight->branch_replica[branch]];
  --replica.outstanding;
  ++replica.completed;
  bool was_unhealthy =
      replica.monitor.enabled() && replica.monitor.state() != OutlierMonitor::State::kHealthy;
  replica.monitor.OnSuccess();
  if (was_unhealthy && replica.monitor.state() == OutlierMonitor::State::kHealthy) {
    ++stats_.readmissions;
    if (m_readmissions_ != nullptr) {
      m_readmissions_->Inc();
    }
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), 0, "fe.readmit",
                 {obs::Arg("je", static_cast<int64_t>(flight->branch_replica[branch]))});
    }
  }
  route.latency.Add(sim_->Now() - dispatch_time);
  if (flight->terminated) {
    return;
  }
  flight->terminated = true;
  if (branch == 1) {
    ++stats_.hedge_wins;
    if (m_hedge_wins_ != nullptr) {
      m_hedge_wins_->Inc();
    }
  }
  int other = 1 - branch;
  if (flight->hedged && flight->branch_live[other]) {
    CancelBranch(flight, other);
  }
  if (flight->user.on_complete) {
    flight->user.on_complete(seq);
  }
}

void Frontend::OnBranchError(const std::shared_ptr<Flight>& flight, int branch,
                             const Status& status) {
  if (!flight->branch_live[branch]) {
    return;  // already cancelled or settled
  }
  flight->branch_live[branch] = false;
  --flight->live_branches;
  Replica& replica = flight->route->replicas[flight->branch_replica[branch]];
  --replica.outstanding;
  ++replica.errors;
  if (replica.monitor.OnError(sim_->Now())) {
    ++stats_.ejections;
    if (m_ejections_ != nullptr) {
      m_ejections_->Inc();
    }
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(
          sim_->Now(), track_.Pid(t), 0, "fe.eject",
          {obs::Arg("je", static_cast<int64_t>(flight->branch_replica[branch])),
           obs::Arg("until", static_cast<int64_t>(replica.monitor.ejected_until()))});
    }
  }
  if (flight->terminated) {
    return;
  }
  if (flight->live_branches > 0) {
    return;  // the other branch may still win
  }
  flight->terminated = true;
  ++stats_.errors;
  if (m_errors_ != nullptr) {
    m_errors_->Inc();
  }
  if (flight->user.on_error) {
    flight->user.on_error(status);
  }
}

Status Frontend::FineTune(const FineTuneRequest& request,
                          FineTuneJobExecutor::Callback on_complete) {
  ++stats_.requests;
  EnsureMetrics();
  if (m_requests_ != nullptr) {
    m_requests_->Inc();
  }
  if (finetune_ == nullptr) {
    return Reject(RejectReason::kUnknownModel, 0,
                  UnavailableError("no fine-tune executor registered"));
  }
  Status status = finetune_->Submit(request, std::move(on_complete));
  if (status.ok()) {
    ++stats_.finetune_dispatched;
  } else {
    return Reject(RejectReason::kNoCapacity, 0, status);
  }
  return status;
}

}  // namespace deepserve::serving
