// The DeepServe frontend (Fig. 1a): the entry tier that terminates user
// "HTTP" requests, dispatches them to the appropriate Job Executor, and
// protects the platform from pathological traffic.
//
// Routing is by (endpoint, model): chat completions go to one of the
// model-serving JEs registered for that model, fine-tuning requests to the
// post-training executor. Which replica — and whether a request is admitted
// at all — is decided by a pluggable RoutePolicy (rr | p2c | wlc | slo, see
// route_policy.h); the frontend mechanism owns the per-replica load and
// health bookkeeping the policies read, plus three cross-cutting protections:
//
//   * outlier ejection — a replica accumulating consecutive post-dispatch
//     errors leaves the rotation, with exponential backoff and half-open
//     probe re-admission (OutlierMonitor);
//   * shared retry budget — crash re-dispatches across every registered JE
//     draw from one budget, so a failing fleet can't melt down retrying;
//   * hedging — a request still unresolved after a p95-based delay is
//     duplicated onto a second replica; the first completion wins and the
//     loser is cancelled across its TEs so no tokens are double-spent.
#ifndef DEEPSERVE_SERVING_FRONTEND_H_
#define DEEPSERVE_SERVING_FRONTEND_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/finetune.h"
#include "serving/job_executor.h"
#include "serving/route_policy.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve::serving {

enum class ApiEndpoint { kChatCompletion, kFineTune };

// A typed chat-completion request envelope. `deadline` (absolute sim time,
// 0 = none) rejects requests that arrive past their deadline; `priority`
// overrides spec.priority when >= 0.
struct ChatRequest {
  std::string model;
  workload::RequestSpec spec;
  TimeNs deadline = 0;
  int priority = -1;
};

struct FrontendStats {
  int64_t requests = 0;
  // Pre-dispatch rejections (ChatCompletion != OK), by reason.
  int64_t rejected_by_reason[kNumRejectReasons] = {};
  int64_t errors = 0;  // failed after dispatch (on_error reached the caller)
  int64_t chat_dispatched = 0;  // primary dispatches (hedges counted below)
  int64_t finetune_dispatched = 0;
  int64_t hedges_launched = 0;
  int64_t hedge_wins = 0;     // the hedge branch completed first
  int64_t hedge_cancels = 0;  // losing branches cancelled across their TEs
  int64_t ejections = 0;      // replicas removed from rotation
  int64_t readmissions = 0;   // ejected replicas restored after a probe

  int64_t rejected(RejectReason reason) const {
    return rejected_by_reason[static_cast<int>(reason)];
  }
  int64_t rejected_total() const {
    int64_t total = 0;
    for (int64_t count : rejected_by_reason) {
      total += count;
    }
    return total;
  }
};

class Frontend {
 public:
  // `sim` drives deadline checks, hedging timers and ejection clocks.
  // `config` must pass RouteConfig::Validate.
  explicit Frontend(sim::Simulator* sim, RouteConfig config = RouteConfig{});

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Registers a serving JE replica for a model name. Multiple JEs per model
  // load-balance through the configured route policy. With the retry budget
  // enabled, the JE is wired to the frontend's shared budget.
  void RegisterServingJe(const std::string& model_name, JobExecutor* je);
  void RegisterFineTuneExecutor(FineTuneJobExecutor* executor) { finetune_ = executor; }

  // Chat-completion entry point, with exactly-once reporting: a pre-dispatch
  // rejection (unknown model, no ready capacity, deadline already missed,
  // overload shed, all capacity ejected) returns a non-OK Status and does
  // NOT invoke the handler — the Status is the one and only report. Once
  // dispatched (Status OK), the request terminates in exactly one of
  // on_complete / on_error.
  [[nodiscard]] Status ChatCompletion(const ChatRequest& request, ResponseHandler handler);

  // Fine-tuning entry point (same exactly-once Status contract).
  [[nodiscard]] Status FineTune(const FineTuneRequest& request, FineTuneJobExecutor::Callback on_complete);

  const FrontendStats& stats() const { return stats_; }
  const RouteConfig& config() const { return config_; }
  size_t je_count(const std::string& model_name) const;
  // The shared retry budget (nullptr unless config.retry_budget).
  const RetryBudget* retry_budget() const { return retry_budget_.get(); }

 private:
  // One registered JE replica plus the bookkeeping the policies read.
  struct Replica {
    JobExecutor* je = nullptr;
    int64_t outstanding = 0;  // dispatched through this frontend, unresolved
    int64_t dispatched = 0;
    int64_t completed = 0;
    int64_t errors = 0;
    OutlierMonitor monitor;

    Replica(JobExecutor* je_in, const RouteConfig& config)
        : je(je_in),
          monitor(config.eject_consecutive_errors, config.eject_base, config.eject_max) {}
  };

  struct ModelRoute {
    std::vector<Replica> replicas;
    std::unique_ptr<RoutePolicy> policy;
    LatencyWindow latency;  // completion latencies feeding the hedge delay
  };

  // One accepted request in flight: the primary branch plus (optionally) one
  // hedge branch. branch 0 = primary, branch 1 = hedge.
  struct Flight {
    workload::RequestSpec spec;
    ResponseHandler user;
    ModelRoute* route = nullptr;
    bool terminated = false;         // the user has been answered
    bool first_token_fired = false;
    bool hedged = false;
    int live_branches = 0;
    size_t branch_replica[2] = {0, 0};
    bool branch_live[2] = {false, false};
  };

  [[nodiscard]] Status Reject(RejectReason reason, workload::RequestId id, Status status);
  // Eligible replicas (ready capacity, not ejected), ascending index.
  // `ejected_capacity` reports whether any replica was held out of the list
  // only by its outlier monitor (distinguishes kEjected from kNoCapacity).
  std::vector<JeSnapshot> BuildCandidates(ModelRoute& route, size_t exclude,
                                          bool* ejected_capacity) const;
  void DispatchTo(ModelRoute& route, size_t replica_index,
                  const std::shared_ptr<Flight>& flight, int branch);
  void ArmHedge(const std::shared_ptr<Flight>& flight);
  void HedgeFire(const std::shared_ptr<Flight>& flight);
  void CancelBranch(const std::shared_ptr<Flight>& flight, int branch);
  void OnBranchComplete(const std::shared_ptr<Flight>& flight, int branch,
                        TimeNs dispatch_time, const flowserve::Sequence& seq);
  void OnBranchError(const std::shared_ptr<Flight>& flight, int branch, const Status& status);
  void EnsureMetrics();

  sim::Simulator* sim_;
  RouteConfig config_;
  std::map<std::string, ModelRoute> routes_;
  std::unique_ptr<RetryBudget> retry_budget_;
  FineTuneJobExecutor* finetune_ = nullptr;
  FrontendStats stats_;
  obs::LazyTrack track_{"frontend", {"traffic"}};
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_dispatched_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
  obs::Counter* m_rejected_[kNumRejectReasons] = {};
  obs::Counter* m_hedges_ = nullptr;
  obs::Counter* m_hedge_wins_ = nullptr;
  obs::Counter* m_hedge_cancels_ = nullptr;
  obs::Counter* m_ejections_ = nullptr;
  obs::Counter* m_readmissions_ = nullptr;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_FRONTEND_H_
