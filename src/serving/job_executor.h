// Model-serving Job Executor (JE) and the distributed scheduling policies of
// §5 (Algorithm 1).
//
// The JE turns each request into a job and its tasks, then picks the TE(s)
// to run them:
//   dist_sched(req, tes):
//     tes <- PD_aware(req, tes)            // §5.3: heatmap + decode-length
//     if tes.is_load_balanced():           //        predictor
//       tes <- locality_aware(req, tes)    // §5.2: global prompt trees
//     else:
//       tes <- load_aware(req, tes)
//
// The JE maintains one global prompt tree per TE group, built over the same
// block-key chains the TE-local RTC trees use ("shares an index with its
// corresponding global tree"). Round-robin and single-factor policies are
// also provided as the baselines the paper compares against.
//
// Control-plane state vs. runtime bindings: the outstanding map, retry
// counts, id counters, round-robin cursor, and TE group membership (as ids)
// live in a ctrl::JobTable held by a ctrl::Leader (ctrl/leader.h). The
// job/task ledger is the JobTable records (control_log()); nothing keeps a
// second copy of it. Runtime-only artifacts
// stay here: ResponseHandlers (modeled as connections the standby
// re-establishes), TaskExecutor pointers (re-bound from ids via the
// ClusterManager), and the prompt-tree caches (rebuildable; affect only
// routing quality).
#ifndef DEEPSERVE_SERVING_JOB_EXECUTOR_H_
#define DEEPSERVE_SERVING_JOB_EXECUTOR_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "ctrl/control_log.h"
#include "ctrl/job_table.h"
#include "ctrl/leader.h"
#include "rtc/radix_tree.h"
#include "serving/heatmap.h"
#include "serving/job.h"
#include "serving/predictor.h"
#include "serving/prompt_tree.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve::serving {

class ClusterManager;
class RetryBudget;

enum class SchedulingPolicy {
  kRoundRobin,
  kLoadOnly,
  kLocalityOnly,
  kPdAware,    // heatmap split, then load
  kCombined,   // Algorithm 1: PD-aware + locality-aware + load-aware
};

std::string_view SchedulingPolicyToString(SchedulingPolicy policy);

struct JeConfig {
  SchedulingPolicy policy = SchedulingPolicy::kCombined;
  int block_size = 16;             // prompt-tree symbol granularity
  int64_t load_balance_slack = 8;  // queue-depth spread considered balanced
  size_t max_tree_nodes = 65536;
  // Online-dynamics guard (§5.3.2): the heatmap's preferred TE sub-group is
  // overridden when its least-loaded member is this much deeper than the
  // alternative's — PD-disaggregated TEs "are more prone to overloading", and
  // the combined policy must not degrade badly there.
  double pd_overload_factor = 2.0;
  int64_t pd_overload_slack = 8;
  // Heterogeneous clusters: before the scheduling policy runs, narrow the
  // candidate TEs to those whose HBM fits the request's predicted context
  // (prefill + predicted decode), then to the generation with the best
  // tokens-per-second-per-dollar among them — falling back to the unfiltered
  // set rather than stranding a placeable request. Off = generation-blind
  // routing, bit-identical to the historical behavior.
  bool cost_aware = false;
};

struct JeStats {
  int64_t requests = 0;           // external requests (retries not re-counted)
  int64_t retries = 0;            // jobs re-dispatched after a TE failure
  int64_t budget_denied = 0;      // retries refused by the shared RetryBudget
  int64_t cancelled = 0;          // jobs dropped via CancelRequest (no callbacks)
  int64_t errors = 0;             // jobs terminated through on_error
  int64_t deadline_failures = 0;  // errors that were expired at (re-)dispatch
  int64_t failed_tes_handled = 0;
  int64_t routed_colocated = 0;
  int64_t routed_disaggregated = 0;
  int64_t locality_decisions = 0;
  int64_t load_decisions = 0;
  int64_t locality_hits = 0;  // dispatches with a non-empty prefix match
  // Cost-aware routing (JeConfig::cost_aware).
  int64_t cost_narrowed = 0;   // candidate sets actually narrowed by the filter
  int64_t cost_fallbacks = 0;  // no candidate fit the predicted context; kept all
  // Control-plane fault pipeline.
  int64_t je_crashes = 0;       // leader crashes injected
  int64_t je_failovers = 0;     // standby takeovers completed
  int64_t deferred_ops = 0;     // completions/failures parked during outages
  int64_t queued_arrivals = 0;  // arrivals buffered until takeover
  DurationNs je_outage_total = 0;
};

class JobExecutor {
 public:
  JobExecutor(sim::Simulator* sim, JeConfig config, PdHeatmap heatmap,
              std::unique_ptr<DecodeLengthPredictor> predictor);
  // Drops the failure subscription AttachControl made.
  ~JobExecutor();

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  // Moves this JE's JobTable domain onto a shared control log (default: an
  // internally owned degenerate single-replica log). Must be called before
  // any state exists — TE registrations, requests. When `cm` is given, the
  // JE registers its own TE failure handler with it (replacing manual
  // AddFailureHandler wiring) and can re-bind TE pointers after failover.
  void AttachControl(ctrl::ControlLog* log, ClusterManager* cm = nullptr);

  // TE group membership. Colocated TEs serve unified tasks; prefill/decode
  // TEs are pooled and paired per request (so 2P1D and 2P2D both work).
  void AddColocatedTe(TaskExecutor* te);
  void AddPrefillTe(TaskExecutor* te);
  void AddDecodeTe(TaskExecutor* te);
  // Returns whether the TE was actually a member of any group (false lets
  // callers — e.g. the autoscaler — detect retiring a TE someone else
  // already removed). While the leader is down the removal is parked until
  // takeover; the return value reflects current membership either way.
  bool RemoveTe(TeId id);

  // Frontend entry: create the job + task(s), run dist_sched, dispatch. The
  // handler's on_error fires (with the job marked failed) when no ready TE can
  // take the request or when the retry budget is exhausted after TE crashes;
  // otherwise on_complete fires exactly once when the request finishes.
  void HandleRequest(const workload::RequestSpec& spec, ResponseHandler handler);

  // Ready serving slots for weighted load balancing: ready colocated TEs plus
  // min(ready prefill, ready decode) PD pairs. Unlike the group counts this
  // consults TeState, so mid-scale-up or failed TEs don't count. > 0 iff some
  // route can serve a request right now; always 0 while the leader is down.
  int ReadyCapacityWeight() const;

  // Drops every outstanding job carrying this request id WITHOUT firing its
  // handler (the caller owns termination — the frontend's hedge path), and
  // cancels the engine-side sequence on every TE the job touched so its KV
  // pins release. Returns how many jobs were dropped (0 = none in flight).
  // While the leader is down the cancel is parked and 0 is returned.
  size_t CancelRequest(workload::RequestId request_id);

  // Installs a shared retry budget (frontend-owned): beyond the per-request
  // retry cap, each crash re-dispatch must also acquire a budget token
  // or the request errors out. nullptr = per-request cap only.
  void SetRetryBudget(RetryBudget* budget) { retry_budget_ = budget; }

  // Fault tolerance: a TE died. It leaves every group, its in-flight jobs are
  // marked failed, and their requests are re-dispatched to surviving TEs
  // (wire this to ClusterManager::AddFailureHandler, or let AttachControl do
  // it). Parked until takeover while the leader is down.
  void OnTeFailure(TeId id);

  // ---- control-plane failover -------------------------------------------------
  // The protocol is ctrl::Leader's. The JE's own steps: at a crash it drops
  // its failure subscription and, with a single replica (no standby), severs
  // every outstanding job with UNAVAILABLE; while down it buffers arrivals
  // (replicated) or rejects them (single replica). At takeover it re-binds
  // TEs and re-subscribes before the parked ops run, then reconciles TEs that
  // died during the outage and dispatches the buffered arrivals.
  [[nodiscard]] Status CrashLeader() { return leader_.Crash(); }
  // FAILED_PRECONDITION on a live leader.
  [[nodiscard]] Status RecoverLeader() { return leader_.Takeover(); }
  bool leader_up() const { return leader_.up(); }
  int64_t control_epoch() const { return table().epoch(); }
  const ctrl::JobTable& table() const { return leader_.state(); }
  // The log holding table()'s domain: its records are the job/task ledger.
  const ctrl::ControlLog& control_log() const { return *leader_.log(); }

  const JeStats& stats() const { return stats_; }
  size_t colocated_count() const { return groups_[ctrl::JobTable::kColocated].size(); }
  size_t prefill_count() const { return groups_[ctrl::JobTable::kPrefill].size(); }
  size_t decode_count() const { return groups_[ctrl::JobTable::kDecode].size(); }

 private:
  // The one membership write behind AddColocatedTe/AddPrefillTe/AddDecodeTe.
  void AddTe(ctrl::JobTable::Group group, TaskExecutor* te);
  // The member TE with this id in any group, or nullptr.
  TaskExecutor* Member(TeId id) const;

  // Algorithm 1 pieces.
  bool PreferDisaggregated(const workload::RequestSpec& spec);
  bool IsLoadBalanced(const std::vector<TaskExecutor*>& tes) const;
  TaskExecutor* LocalityAware(std::span<const rtc::BlockKey> keys, PromptTree& tree,
                              const std::vector<TaskExecutor*>& tes);
  static TaskExecutor* LoadAware(const std::vector<TaskExecutor*>& tes);
  TaskExecutor* SelectFrom(std::span<const rtc::BlockKey> keys, PromptTree& tree,
                           const std::vector<TaskExecutor*>& tes);

  void RecordRoute(std::span<const rtc::BlockKey> keys, PromptTree& tree, TeId te);
  void TrimTree(PromptTree& tree);
  // Fills `*ready` with the ready TEs of `tes`, in order.
  static void ReadyTes(const std::vector<TaskExecutor*>& tes, std::vector<TaskExecutor*>* ready);
  // The cost_aware narrowing pass (see JeConfig::cost_aware).
  // `predicted_tokens` = prefill + predicted decode for the request.
  std::vector<TaskExecutor*> CostAwareFilter(int64_t predicted_tokens,
                                             const std::vector<TaskExecutor*>& tes);

  // The dispatch core behind HandleRequest and the failure-retry path.
  // `retries` is how many times this request has already been re-dispatched.
  void Dispatch(const workload::RequestSpec& spec, ResponseHandler handler, int retries);
  // Terminates `job_id` through on_error (erasing it from the outstanding
  // map). No-op when the job already finished or the retry path owns it.
  void FailJob(JobId job_id, const Status& status);
  // Appends outstanding `job_id`'s close record (kJobCompleted or
  // kJobFailed), then drops its kJobCreated payload from the log: replay can
  // no longer observe the prompt, so the log releases the record's prompt
  // reference and context id. Returns the caller's handler, which the JE no
  // longer holds.
  ResponseHandler CloseJob(JobId job_id, int32_t close_type);

  // `keys` is the chain Dispatch hashed; it rides to the TE(s).
  void DispatchColocated(JobId job_id, TaskExecutor* te, const workload::RequestSpec& spec,
                         rtc::KeyChain keys);
  void DispatchDisaggregated(JobId job_id, TaskExecutor* prefill_te,
                             const workload::RequestSpec& spec, rtc::KeyChain keys);

  // The handler the TE(s) run `job_id` under: each callback captures only
  // (this, job_id), which std::function stores inline, and lands in the
  // matching OnTask* member. Those park on the leader while it is down,
  // except a colocated first token, which goes straight through.
  ResponseHandler TeHandler(JobId job_id);
  void OnTaskFirstToken(JobId job_id, const flowserve::Sequence& seq);
  void OnTaskComplete(JobId job_id, const flowserve::Sequence& seq);
  void OnTaskError(JobId job_id, const Status& status);

  TaskId NewTask(JobId job, TaskType type, TeId te);
  // The JE's leader steps (see CrashLeader).
  void OnLeaderCrash();
  void RebindTes();
  void ReconcileAfterTakeover();
  // Lazily registers the JE's trace track; -1 when tracing is disabled.
  int TracePid();

  sim::Simulator* sim_;
  JeConfig config_;
  PdHeatmap heatmap_;
  std::unique_ptr<DecodeLengthPredictor> predictor_;
  RetryBudget* retry_budget_ = nullptr;

  JeStats stats_;
  // Replicated control-plane state (see file comment), its log and the
  // failover protocol.
  ctrl::Leader<ctrl::JobTable> leader_;

  // Runtime bindings (data plane / per-leader artifacts): the live TEs of
  // each group, indexed by ctrl::JobTable::Group.
  std::vector<TaskExecutor*> groups_[3];
  // Dispatch's ready-TE lists, refilled per request instead of reallocated.
  std::vector<TaskExecutor*> ready_coloc_;
  std::vector<TaskExecutor*> ready_prefill_;
  std::vector<TaskExecutor*> ready_decode_;
  // Per outstanding job: the caller's handler, held nowhere else, and the one
  // task a TE callback closes — the prefill task at the first token (PD) or
  // the unified task at completion (colocated).
  struct Caller {
    ResponseHandler handler;
    TaskId task = 0;
    bool disaggregated = false;
  };
  std::map<JobId, Caller> handlers_;

  PromptTree colocated_tree_;
  PromptTree prefill_tree_;

  // Per-leader runtime bindings for failover.
  ClusterManager* cm_ = nullptr;
  int64_t failure_handler_id_ = 0;  // 0 = not registered via AttachControl
  std::vector<TeId> unbound_;  // group ids with no live TE at the last takeover
  struct PendingArrival {
    workload::RequestSpec spec;
    ResponseHandler handler;
  };
  std::vector<PendingArrival> pending_arrivals_;

  int trace_pid_ = -1;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_JOB_EXECUTOR_H_
