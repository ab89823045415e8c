#include "serving/job_executor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"
#include "model/cost_model.h"
#include "serving/cluster_manager.h"
#include "serving/route_policy.h"

namespace deepserve::serving {

namespace {

// Fault tolerance: how many times one request may be re-dispatched after TE
// failures before it errors out through ResponseHandler::on_error.
constexpr int kMaxRetries = 3;
// Queue-depth spread across candidate TEs still considered balanced, so the
// locality-aware pick may run.
constexpr int64_t kLoadBalanceSlack = 8;
// Online-dynamics guard (§5.3.2): the heatmap's preferred TE sub-group is
// overridden when its least-loaded member is deeper than the alternative's
// times the factor plus the slack — PD-disaggregated TEs "are more prone to
// overloading", and the combined policy must not degrade badly there.
constexpr double kPdOverloadFactor = 2.0;
constexpr int64_t kPdOverloadSlack = 8;

}  // namespace

Status JeConfig::Validate() const {
  if (max_tree_nodes < 1) {
    return InvalidArgumentError("JE max_tree_nodes must be >= 1");
  }
  return Status::Ok();
}

JobExecutor::JobExecutor(sim::Simulator* sim, JeConfig config, PdHeatmap heatmap,
                         std::unique_ptr<DecodeLengthPredictor> predictor)
    : sim_(sim), config_(config), heatmap_(std::move(heatmap)),
      predictor_(std::move(predictor)),
      leader_(sim_, /*log=*/nullptr,  // until AttachControl
              {&stats_.je_crashes, &stats_.je_failovers, &stats_.deferred_ops,
               &stats_.je_outage_total},
              {[this] { OnLeaderCrash(); }, [this] { RebindTes(); },
               [this] { ReconcileAfterTakeover(); }}) {
  DS_CHECK(predictor_ != nullptr);
  DS_CHECK_OK(config_.Validate());
}

JobExecutor::~JobExecutor() {
  if (cm_ != nullptr && failure_handler_id_ != 0) {
    cm_->RemoveFailureHandler(failure_handler_id_);
  }
}

void JobExecutor::AttachControl(ctrl::ControlLog* log, ClusterManager* cm) {
  leader_.MoveTo(log);
  cm_ = cm;
  if (cm_ != nullptr) {
    failure_handler_id_ = cm_->AddFailureHandler([this](TeId id) { OnTeFailure(id); });
  }
}

ResponseHandler JobExecutor::CloseJob(JobId job_id, int32_t close_type) {
  const uint64_t created = table().outstanding().at(job_id).created_seq;
  leader_.Append(close_type, {static_cast<int64_t>(job_id)});
  leader_.log()->DropPayload(created);
  auto caller = handlers_.extract(job_id);
  return caller.empty() ? ResponseHandler{} : std::move(caller.mapped().handler);
}

void JobExecutor::AddTe(ctrl::JobTable::Group group, TaskExecutor* te) {
  static constexpr flowserve::EngineRole kRole[3] = {flowserve::EngineRole::kColocated,
                                                     flowserve::EngineRole::kPrefillOnly,
                                                     flowserve::EngineRole::kDecodeOnly};
  DS_CHECK(te->role() == kRole[group]);
  if (!leader_.up()) {
    leader_.Park([this, group, te] { AddTe(group, te); });
    return;
  }
  leader_.Append(ctrl::JobTable::kTeAdded, {group, static_cast<int64_t>(te->id())});
  te_slots_.Assign(te->id());
  groups_[group].push_back(te);
}

void JobExecutor::AddColocatedTe(TaskExecutor* te) { AddTe(ctrl::JobTable::kColocated, te); }
void JobExecutor::AddPrefillTe(TaskExecutor* te) { AddTe(ctrl::JobTable::kPrefill, te); }
void JobExecutor::AddDecodeTe(TaskExecutor* te) { AddTe(ctrl::JobTable::kDecode, te); }

TaskExecutor* JobExecutor::Member(TeId id) const {
  for (const auto& group : groups_) {
    for (TaskExecutor* te : group) {
      if (te->id() == id) {
        return te;
      }
    }
  }
  return nullptr;
}

bool JobExecutor::RemoveTe(TeId id) {
  const bool member = Member(id) != nullptr;
  if (!leader_.up()) {
    leader_.Park([this, id] { RemoveTe(id); });
    return member;
  }
  if (!member) {
    return false;
  }
  for (auto& group : groups_) {
    std::erase_if(group, [id](TaskExecutor* te) { return te->id() == id; });
  }
  leader_.Append(ctrl::JobTable::kTeRemoved, {static_cast<int64_t>(id)});
  // The departed TE's prompt-tree tags stay: LocalityPick reads only the
  // candidates' slots, and no other TE ever takes this one's slot.
  return true;
}

void JobExecutor::ReadyTes(const std::vector<TaskExecutor*>& tes,
                           std::vector<TaskExecutor*>* ready) {
  ready->clear();
  for (TaskExecutor* te : tes) {
    if (te->ready()) {
      ready->push_back(te);
    }
  }
}

std::vector<TaskExecutor*> JobExecutor::CostAwareFilter(
    int64_t predicted_tokens, const std::vector<TaskExecutor*>& tes) {
  if (tes.size() <= 1) {
    return tes;
  }
  // Feasibility: the TE's HBM must hold this request's predicted context at
  // the utilization target. The cost model reflects the TE's own silicon
  // (on a mixed cluster the ClusterManager sets each TE's spec from its
  // machine at creation).
  std::vector<TaskExecutor*> fits;
  for (TaskExecutor* te : tes) {
    if (te->engine().cost_model().MaxKvTokensPerNpu() >= predicted_tokens) {
      fits.push_back(te);
    }
  }
  if (fits.empty()) {
    // Nothing fits the prediction — a tight TE beats a stranded request.
    ++stats_.cost_fallbacks;
    return tes;
  }
  auto score = [](const TaskExecutor* te) {
    const flowserve::EngineConfig& engine = te->config().engine;
    return model::TokensPerSecondPerDollar(engine.model, engine.npu_spec, engine.parallelism);
  };
  // Keep the best-scoring generation. Same-generation TEs produce the exact
  // same score (same pure-function inputs), so the equality compare is safe.
  double best = 0.0;
  for (TaskExecutor* te : fits) {
    best = std::max(best, score(te));
  }
  std::vector<TaskExecutor*> cheapest;
  for (TaskExecutor* te : fits) {
    if (score(te) >= best) {
      cheapest.push_back(te);
    }
  }
  if (cheapest.size() < tes.size()) {
    ++stats_.cost_narrowed;
  }
  return cheapest;
}

bool JobExecutor::PreferDisaggregated(const workload::RequestSpec& spec) {
  int64_t predicted = predictor_->Predict(spec);
  return heatmap_.PreferDisaggregated(spec.prefill_len(), predicted);
}

bool JobExecutor::IsLoadBalanced(const std::vector<TaskExecutor*>& tes) const {
  if (tes.size() <= 1) {
    return true;
  }
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (TaskExecutor* te : tes) {
    int64_t depth = te->queue_depth();
    lo = std::min(lo, depth);
    hi = std::max(hi, depth);
  }
  return hi - lo <= kLoadBalanceSlack;
}

TaskExecutor* JobExecutor::LoadAware(const std::vector<TaskExecutor*>& tes) {
  TaskExecutor* best = nullptr;
  for (TaskExecutor* te : tes) {
    if (best == nullptr || te->queue_depth() < best->queue_depth()) {
      best = te;
    }
  }
  return best;
}

TaskExecutor* JobExecutor::LocalityAware(std::span<const rtc::BlockKey> keys, PromptTree& tree,
                                         const std::vector<TaskExecutor*>& tes) {
  bool hit = false;
  tree.Match(keys, &match_);
  TaskExecutor* best = LocalityPick(match_, tes, te_slots_, &hit);
  if (hit) {
    ++stats_.locality_hits;
  }
  return best;
}

TaskExecutor* JobExecutor::SelectFrom(std::span<const rtc::BlockKey> keys, PromptTree& tree,
                                      const std::vector<TaskExecutor*>& tes) {
  DS_CHECK(!tes.empty());
  switch (config_.policy) {
    case SchedulingPolicy::kRoundRobin:
      // The cursor advances once per request (kRrAdvanced) in Dispatch.
      return tes[table().rr_cursor() % tes.size()];
    case SchedulingPolicy::kLoadOnly:
      ++stats_.load_decisions;
      return LoadAware(tes);
    case SchedulingPolicy::kLocalityOnly:
      ++stats_.locality_decisions;
      return LocalityAware(keys, tree, tes);
    case SchedulingPolicy::kPdAware:
      ++stats_.load_decisions;
      return LoadAware(tes);
    case SchedulingPolicy::kCombined:
      if (IsLoadBalanced(tes)) {
        ++stats_.locality_decisions;
        return LocalityAware(keys, tree, tes);
      }
      ++stats_.load_decisions;
      return LoadAware(tes);
  }
  return tes.front();
}

void JobExecutor::TrimTree(PromptTree& tree) {
  if (tree.NodeCount() <= config_.max_tree_nodes) {
    return;
  }
  tree.ScanLruLeaves([&](PromptTree::Node&) {
    return tree.NodeCount() > config_.max_tree_nodes ? rtc::LruStep::kRemove
                                                     : rtc::LruStep::kStop;
  });
}

void JobExecutor::RecordRoute(const rtc::KeyChain& chain, PromptTree& tree, TeId te) {
  if (chain.size() == 0) {
    return;
  }
  auto* node = tree.Insert(chain, sim_->Now());
  // Tag the full path: every prefix of this prompt now lives on `te`.
  const uint32_t slot = te_slots_.Of(te);
  for (PromptTree::Node* cursor = node; cursor->parent != nullptr; cursor = cursor->parent) {
    cursor->value.Add(slot);
  }
  TrimTree(tree);
}

TaskId JobExecutor::NewTask(JobId job, TaskType type, TeId te) {
  const TaskId task_id = table().next_task();
  leader_.Append(ctrl::JobTable::kTaskCreated,
            {static_cast<int64_t>(task_id), static_cast<int64_t>(job),
             static_cast<int64_t>(type), static_cast<int64_t>(te)});
  return task_id;
}

int JobExecutor::ReadyCapacityWeight() const {
  if (!leader_.up()) {
    return 0;
  }
  int ready[3] = {};
  for (int g = 0; g < 3; ++g) {
    ready[g] = static_cast<int>(std::count_if(groups_[g].begin(), groups_[g].end(),
                                              [](TaskExecutor* te) { return te->ready(); }));
  }
  return ready[ctrl::JobTable::kColocated] +
         std::min(ready[ctrl::JobTable::kPrefill], ready[ctrl::JobTable::kDecode]);
}

size_t JobExecutor::CancelRequest(workload::RequestId request_id) {
  if (!leader_.up()) {
    leader_.Park([this, request_id] { CancelRequest(request_id); });
    return 0;
  }
  std::vector<JobId> hits;
  for (const auto& [job_id, outstanding] : table().outstanding()) {
    if (outstanding.spec.id == request_id) {
      hits.push_back(job_id);
    }
  }
  for (JobId job_id : hits) {
    std::vector<TeId> tes = table().outstanding().at(job_id).tes;
    (void)CloseJob(job_id, ctrl::JobTable::kJobFailed);  // the handler dies unfired
    for (TeId te_id : tes) {
      if (TaskExecutor* te = Member(te_id)) {
        te->CancelRequest(request_id);
      }
    }
    ++stats_.cancelled;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), 0, "je.cancel",
                 {obs::Arg("req", static_cast<int64_t>(request_id))});
    }
  }
  return hits.size();
}

void JobExecutor::HandleRequest(const workload::RequestSpec& spec, ResponseHandler handler) {
  ++stats_.requests;
  if (!leader_.up()) {
    if (leader_.log()->replicated()) {
      // The standby picks these up at takeover.
      ++stats_.queued_arrivals;
      pending_arrivals_.push_back({spec, std::move(handler)});
    } else {
      ++stats_.errors;
      if (obs::Tracer* t = sim_->tracer()) {
        t->Instant(sim_->Now(), track_.Pid(t), 0, "je.error",
                   {obs::Arg("req", static_cast<int64_t>(spec.id)),
                    obs::Arg("code", "unavailable")});
      }
      if (handler.on_error) {
        handler.on_error(UnavailableError("job executor leader down with no standby"));
      }
    }
    return;
  }
  Dispatch(spec, std::move(handler), /*retries=*/0);
}

void JobExecutor::FailJob(JobId job_id, const Status& status) {
  if (!table().IsOutstanding(job_id)) {
    return;  // already completed, already failed, or owned by the retry path
  }
  workload::RequestId request = table().outstanding().at(job_id).spec.id;
  ResponseHandler handler = CloseJob(job_id, ctrl::JobTable::kJobFailed);
  ++stats_.errors;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "je.error",
               {obs::Arg("req", static_cast<int64_t>(request)),
                obs::Arg("code", StatusCodeToString(status.code()))});
  }
  if (handler.on_error) {
    handler.on_error(status);
  }
}

void JobExecutor::Dispatch(const workload::RequestSpec& spec, ResponseHandler handler,
                           int retries) {
  const JobId job_id = table().next_job();
  // kJobCreated carries the full spec, its prompt by shared reference: a
  // standby replaying the log can re-dispatch or fail this request without
  // the leader's memory.
  leader_.Append(ctrl::JobTable::kJobCreated,
            {static_cast<int64_t>(job_id), static_cast<int64_t>(spec.id), retries, spec.arrival,
             spec.decode_len, spec.priority, spec.deadline},
            spec.context_id, spec.prompt);
  handlers_[job_id].handler = std::move(handler);

  if (spec.deadline > 0 && sim_->Now() > spec.deadline) {
    // Already dead on arrival here — typically a crash re-dispatch of a
    // request whose deadline lapsed while the fleet recovered. Fail it with
    // DEADLINE_EXCEEDED rather than queue work no one is waiting for.
    ++stats_.deadline_failures;
    FailJob(job_id, DeadlineExceededError("request " + std::to_string(spec.id) +
                                          " expired before dispatch"));
    return;
  }

  std::vector<TaskExecutor*>& coloc = ready_coloc_;
  std::vector<TaskExecutor*>& prefill = ready_prefill_;
  std::vector<TaskExecutor*>& decode = ready_decode_;
  ReadyTes(groups_[ctrl::JobTable::kColocated], &coloc);
  ReadyTes(groups_[ctrl::JobTable::kPrefill], &prefill);
  ReadyTes(groups_[ctrl::JobTable::kDecode], &decode);
  if (config_.cost_aware) {
    int64_t predicted = spec.prefill_len() + predictor_->Predict(spec);
    coloc = CostAwareFilter(predicted, coloc);
    prefill = CostAwareFilter(predicted, prefill);
    decode = CostAwareFilter(predicted, decode);
  }
  bool disagg_available = !prefill.empty() && !decode.empty();
  if (coloc.empty() && !disagg_available) {
    // Nothing can serve this request right now: fail it instead of crashing
    // (a fleet mid-recovery legitimately hits this window).
    FailJob(job_id, UnavailableError("no ready TEs for request " + std::to_string(spec.id)));
    return;
  }

  // ---- PD_aware: choose the TE sub-group -----------------------------------
  bool use_disagg = false;
  switch (config_.policy) {
    case SchedulingPolicy::kRoundRobin: {
      // Baseline: alternate over routing slots (each colocated TE and the
      // disaggregated pool each count as one slot).
      size_t slots = coloc.size() + (disagg_available ? 1 : 0);
      size_t slot = table().rr_cursor() % std::max<size_t>(1, slots);
      use_disagg = disagg_available && slot == coloc.size();
      break;
    }
    case SchedulingPolicy::kLoadOnly:
    case SchedulingPolicy::kLocalityOnly: {
      // Single-factor baselines ignore the heatmap: compare pool loads.
      if (!disagg_available) {
        use_disagg = false;
      } else if (coloc.empty()) {
        use_disagg = true;
      } else {
        use_disagg = LoadAware(prefill)->queue_depth() < LoadAware(coloc)->queue_depth();
      }
      break;
    }
    case SchedulingPolicy::kPdAware:
    case SchedulingPolicy::kCombined: {
      use_disagg = disagg_available && (coloc.empty() || PreferDisaggregated(spec));
      // Overload guard: ignore the heatmap when the preferred sub-group is
      // drowning relative to the alternative.
      if (disagg_available && !coloc.empty()) {
        int64_t disagg_depth = std::max(LoadAware(prefill)->queue_depth(),
                                        LoadAware(decode)->queue_depth());
        int64_t coloc_depth = LoadAware(coloc)->queue_depth();
        auto overloaded = [](int64_t mine, int64_t other) {
          return static_cast<double>(mine) >
                 static_cast<double>(other) * kPdOverloadFactor +
                     static_cast<double>(kPdOverloadSlack);
        };
        if (use_disagg && overloaded(disagg_depth, coloc_depth)) {
          use_disagg = false;
        } else if (!use_disagg && overloaded(coloc_depth, disagg_depth)) {
          use_disagg = true;
        }
      }
      break;
    }
  }
  if (use_disagg && !disagg_available) {
    use_disagg = false;
  }
  if (!use_disagg && coloc.empty()) {
    use_disagg = true;
  }

  // The prompt's block-key chain, hashed once: it keys the prompt-tree lookup
  // and rides with the request to the RTC of every TE it runs on.
  rtc::KeyChain chain = rtc::KeyChain::Hash(spec.prompt);
  std::span<const rtc::BlockKey> keys = chain.span();
  if (use_disagg) {
    ++stats_.routed_disaggregated;
    TaskExecutor* p = SelectFrom(keys, prefill_tree_, prefill);
    RecordRoute(chain, prefill_tree_, p->id());
    leader_.Append(ctrl::JobTable::kJobTeBound,
              {static_cast<int64_t>(job_id), static_cast<int64_t>(p->id())});
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), 0, "je.route",
                 {obs::Arg("req", static_cast<int64_t>(spec.id)),
                  obs::Arg("route", "disaggregated"),
                  obs::Arg("prefill_te", static_cast<int64_t>(p->id()))});
    }
    DispatchDisaggregated(job_id, p, spec, std::move(chain));
  } else {
    ++stats_.routed_colocated;
    TaskExecutor* te = SelectFrom(keys, colocated_tree_, coloc);
    RecordRoute(chain, colocated_tree_, te->id());
    leader_.Append(ctrl::JobTable::kJobTeBound,
              {static_cast<int64_t>(job_id), static_cast<int64_t>(te->id())});
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), 0, "je.route",
                 {obs::Arg("req", static_cast<int64_t>(spec.id)),
                  obs::Arg("route", "colocated"),
                  obs::Arg("te", static_cast<int64_t>(te->id()))});
    }
    DispatchColocated(job_id, te, spec, std::move(chain));
  }
  leader_.Append(ctrl::JobTable::kRrAdvanced);
}

void JobExecutor::DispatchColocated(JobId job_id, TaskExecutor* te,
                                    const workload::RequestSpec& spec, rtc::KeyChain keys) {
  handlers_.at(job_id).task = NewTask(job_id, TaskType::kUnified, te->id());
  te->SubmitUnified(spec, TeHandler(job_id), std::move(keys));
}

void JobExecutor::DispatchDisaggregated(JobId job_id, TaskExecutor* prefill_te,
                                        const workload::RequestSpec& spec, rtc::KeyChain keys) {
  std::vector<TaskExecutor*>& decode = ready_decode_;
  ReadyTes(groups_[ctrl::JobTable::kDecode], &decode);
  if (config_.cost_aware) {
    decode = CostAwareFilter(spec.prefill_len() + predictor_->Predict(spec), decode);
  }
  DS_CHECK(!decode.empty());
  TaskExecutor* decode_te = LoadAware(decode);
  leader_.Append(ctrl::JobTable::kJobTeBound,
            {static_cast<int64_t>(job_id), static_cast<int64_t>(decode_te->id())});
  Caller& caller = handlers_.at(job_id);
  caller.task = NewTask(job_id, TaskType::kPrefill, prefill_te->id());
  caller.disaggregated = true;
  (void)NewTask(job_id, TaskType::kDecode, decode_te->id());
  prefill_te->SubmitPrefill(spec, decode_te, TeHandler(job_id), std::move(keys));
}

ResponseHandler JobExecutor::TeHandler(JobId job_id) {
  return {[this, job_id](const flowserve::Sequence& seq) { OnTaskFirstToken(job_id, seq); },
          [this, job_id](const flowserve::Sequence& seq) { OnTaskComplete(job_id, seq); },
          [this, job_id](const Status& status) { OnTaskError(job_id, status); }};
}

// A TE callback for a job no longer outstanding (failed, cancelled or retried)
// does nothing, so the caller hears exactly one of on_complete / on_error. A
// parked call copies the Sequence, which the engine releases before takeover.
void JobExecutor::OnTaskFirstToken(JobId job_id, const flowserve::Sequence& seq) {
  auto it = handlers_.find(job_id);
  if (it == handlers_.end()) {
    return;
  }
  if (it->second.disaggregated) {
    if (!leader_.up()) {
      leader_.Park([this, job_id, seq] { OnTaskFirstToken(job_id, seq); });
      return;
    }
    leader_.Append(ctrl::JobTable::kTaskCompleted, {static_cast<int64_t>(it->second.task)});
  }
  if (it->second.handler.on_first_token) {
    it->second.handler.on_first_token(seq);
  }
}

void JobExecutor::OnTaskComplete(JobId job_id, const flowserve::Sequence& seq) {
  if (!leader_.up()) {
    leader_.Park([this, job_id, seq] { OnTaskComplete(job_id, seq); });
    return;
  }
  auto it = handlers_.find(job_id);
  if (it == handlers_.end()) {
    return;
  }
  if (!it->second.disaggregated) {
    leader_.Append(ctrl::JobTable::kTaskCompleted, {static_cast<int64_t>(it->second.task)});
  }
  ResponseHandler handler = CloseJob(job_id, ctrl::JobTable::kJobCompleted);
  if (handler.on_complete) {
    handler.on_complete(seq);
  }
}

void JobExecutor::OnTaskError(JobId job_id, const Status& status) {
  if (!leader_.up()) {
    leader_.Park([this, job_id, status] { OnTaskError(job_id, status); });
    return;
  }
  FailJob(job_id, status);
}

void JobExecutor::OnTeFailure(TeId id) {
  if (!leader_.up()) {
    // Parked: the standby reconciles dead TEs at takeover, and this handler
    // re-runs first so membership and retries aren't double-processed.
    leader_.Park([this, id] { OnTeFailure(id); });
    return;
  }
  ++stats_.failed_tes_handled;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "je.te_failure",
               {obs::Arg("te", static_cast<int64_t>(id))});
  }
  RemoveTe(id);
  // Collect jobs whose tasks ran on the dead TE, then re-dispatch each.
  struct Retry {
    workload::RequestSpec spec;
    std::vector<TeId> tes;
    int retries = 0;
    ResponseHandler handler;
  };
  std::vector<JobId> hit_jobs;
  for (const auto& [job_id, outstanding] : table().outstanding()) {
    if (std::find(outstanding.tes.begin(), outstanding.tes.end(), id) !=
        outstanding.tes.end()) {
      hit_jobs.push_back(job_id);
    }
  }
  std::vector<Retry> to_retry;
  for (JobId job_id : hit_jobs) {
    const ctrl::JobTable::Outstanding& outstanding = table().outstanding().at(job_id);
    Retry retry;
    retry.spec = outstanding.spec;
    retry.tes = outstanding.tes;
    retry.retries = outstanding.retries;
    retry.handler = CloseJob(job_id, ctrl::JobTable::kJobFailed);
    to_retry.push_back(std::move(retry));
  }
  for (auto& retry : to_retry) {
    // A surviving TE of a disaggregated pair may still hold half the job
    // (e.g. the prefill finished but the decode TE died, or vice versa);
    // cancel the leftover so its KV pins are released before the retry. The
    // Cancel Status is intentionally discarded: kNotFound just means that
    // side of the pair never admitted (or already finished) the sequence.
    for (TeId te_id : retry.tes) {
      if (TaskExecutor* te = Member(te_id)) {  // the dead TE already left
        (void)te->engine().Cancel(retry.spec.id);
      }
    }
    bool budget_ok = true;
    if (retry.retries < kMaxRetries && retry_budget_ != nullptr &&
        !retry_budget_->TryAcquire()) {
      // The fleet-wide retry budget (shared across every JE the frontend
      // registered) is dry: give up even though this request has per-request
      // retries left — retry storms must not amplify a failing fleet.
      budget_ok = false;
      ++stats_.budget_denied;
    }
    if (retry.retries >= kMaxRetries || !budget_ok) {
      // Retry budget exhausted: the request is gone for good — report it
      // instead of redispatching forever.
      ++stats_.errors;
      if (obs::Tracer* t = sim_->tracer()) {
        t->Instant(sim_->Now(), track_.Pid(t), 0, "je.error",
                   {obs::Arg("req", static_cast<int64_t>(retry.spec.id)),
                    obs::Arg("code", "aborted"),
                    obs::Arg("retries", static_cast<int64_t>(retry.retries))});
      }
      if (retry.handler.on_error) {
        retry.handler.on_error(AbortedError("request " + std::to_string(retry.spec.id) +
                                            " dropped after " + std::to_string(retry.retries) +
                                            " re-dispatches"));
      }
      continue;
    }
    ++stats_.retries;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), 0, "je.redispatch",
                 {obs::Arg("req", static_cast<int64_t>(retry.spec.id)),
                  obs::Arg("attempt", static_cast<int64_t>(retry.retries + 1))});
    }
    Dispatch(retry.spec, std::move(retry.handler), retry.retries + 1);
  }
}

void JobExecutor::OnLeaderCrash() {
  const ctrl::ControlLog& log = control_log();
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "je.crash",
               {obs::Arg("replicated", static_cast<int64_t>(log.replicated())),
                obs::Arg("log_records", log.CountDomain(table().domain()))});
  }
  // The dead leader's failure subscription must not fire into a down JE's
  // retry path; the standby re-subscribes at takeover.
  if (cm_ != nullptr && failure_handler_id_ != 0) {
    cm_->RemoveFailureHandler(failure_handler_id_);
    failure_handler_id_ = 0;
  }
  if (log.replicated()) {
    return;
  }
  // Permanent outage: the crash destroys all in-flight scheduling state and
  // no standby will replay it. Clients observe severed connections — every
  // outstanding job fails, and engine-side sequences are cancelled so their
  // KV pins release (token conservation).
  std::vector<JobId> doomed;
  for (const auto& [job_id, outstanding] : table().outstanding()) {
    doomed.push_back(job_id);
  }
  for (JobId job_id : doomed) {
    const ctrl::JobTable::Outstanding& outstanding = table().outstanding().at(job_id);
    const workload::RequestId request = outstanding.spec.id;
    for (TeId te_id : std::vector<TeId>(outstanding.tes)) {
      if (TaskExecutor* te = Member(te_id)) {
        (void)te->engine().Cancel(request);
      }
    }
    FailJob(job_id, UnavailableError("request " + std::to_string(request) +
                                     " severed by job executor crash (no standby)"));
  }
}

void JobExecutor::RebindTes() {
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "je.failover",
               {obs::Arg("epoch", table().epoch()),
                obs::Arg("outage_ms", NsToMs(sim_->Now() - leader_.crash_time()))});
  }
  // Re-establish runtime bindings: TE pointers from replicated ids, and the
  // failure subscription the dead leader held.
  if (cm_ == nullptr) {
    return;
  }
  for (int g = 0; g < 3; ++g) {
    groups_[g].clear();
    for (TeId id : table().group(static_cast<ctrl::JobTable::Group>(g))) {
      if (TaskExecutor* te = cm_->te(id)) {
        te_slots_.Assign(id);
        groups_[g].push_back(te);
      } else {
        unbound_.push_back(id);
      }
    }
  }
  failure_handler_id_ = cm_->AddFailureHandler([this](TeId id) { OnTeFailure(id); });
}

void JobExecutor::ReconcileAfterTakeover() {
  // After the parked ops (so membership changes and retries that predate the
  // outage's end aren't double-processed): reconcile TEs that died or stopped
  // during the outage, then dispatch the buffered arrivals against them.
  for (TeId id : unbound_) {
    OnTeFailure(id);
  }
  unbound_.clear();
  for (const auto& group : groups_) {
    std::vector<TaskExecutor*> members = group;  // handlers mutate the groups
    for (TaskExecutor* te : members) {
      if (te->state() == TeState::kFailed) {
        OnTeFailure(te->id());
      } else if (te->state() == TeState::kStopped) {
        RemoveTe(te->id());
      }
    }
  }
  std::vector<PendingArrival> arrivals = std::move(pending_arrivals_);
  pending_arrivals_.clear();
  for (auto& arrival : arrivals) {
    Dispatch(arrival.spec, std::move(arrival.handler), /*retries=*/0);
  }
}

}  // namespace deepserve::serving
