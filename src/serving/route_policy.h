// Pluggable frontend traffic management (Fig. 1a, §3): the mechanism/policy
// split for routing chat requests across Job Executor replicas, mirroring the
// engine sched/ and autoscaler layers.
//
//   * RoutePolicy — a pure decision procedure: per request it sees the
//     eligible replicas (ready capacity, not ejected) as load snapshots and
//     returns a target or a shed verdict.
//       "rr"   round-robin over eligible replicas — bit-identical to the
//              pre-RoutePolicy dispatch loop (pinned by the golden parity
//              test in tests/route_policy_test.cc).
//       "p2c"  power-of-two-choices: sample two distinct candidates from a
//              seeded stream, dispatch to the one with fewer outstanding
//              requests (ties to the lower replica index).
//       "wlc"  weighted least-connections: outstanding load normalized by
//              each replica's ready serving slots (TE-group capacity).
//       "slo"  least-loaded dispatch plus overload shedding by service
//              class: when fleet-wide outstanding-per-slot pressure crosses
//              a class's depth threshold, that class is turned away so
//              interactive traffic survives the flash crowd.
//   * Frontend — the mechanism: owns per-replica load/health bookkeeping fed
//     by dispatch outcomes, pre-filters candidates, and applies the
//     cross-cutting protections (outlier ejection, shared retry budget,
//     hedging) around whatever policy is installed.
//
// The building blocks below (OutlierMonitor, RetryBudget, LatencyWindow) are
// standalone and deterministic — all timing is caller-supplied sim time.
#ifndef DEEPSERVE_SERVING_ROUTE_POLICY_H_
#define DEEPSERVE_SERVING_ROUTE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"

namespace deepserve::serving {

// Why a request was turned away before dispatch (ChatCompletion != OK).
enum class RejectReason {
  kUnknownModel,   // no JE registered for the model
  kNoCapacity,     // every replica's TE group lacked ready capacity
  kDeadline,       // arrived past its deadline
  kOverloadShed,   // policy shed the service class under global pressure
  kEjected,        // capacity existed only on outlier-ejected replicas
};

inline constexpr int kNumRejectReasons = 5;

std::string_view RejectReasonToString(RejectReason reason);

struct RouteConfig {
  std::string policy = "rr";  // rr | p2c | wlc | slo
  uint64_t seed = 1;          // p2c's sampling stream

  // -- outlier ejection (0 = off) ---------------------------------------------
  // After this many consecutive post-dispatch errors a replica leaves the
  // rotation for eject_base * 2^(ejections-1), capped at eject_max; it then
  // re-admits through a single half-open probe (see OutlierMonitor).
  int eject_consecutive_errors = 0;
  DurationNs eject_base = SToNs(5.0);
  DurationNs eject_max = SToNs(60.0);

  // -- shared retry budget (off unless retry_budget) --------------------------
  // Crash re-dispatches across every JE registered with the frontend may not
  // exceed retry_floor + 0.2 * requests-admitted; beyond that, failed
  // requests error out instead of retrying (retry-storm protection).
  bool retry_budget = false;
  int64_t retry_floor = 8;

  // -- hedging (0 = off; needs a simulator) -----------------------------------
  // A request still unresolved hedge_delay() after dispatch is duplicated
  // onto a second replica; the first completion wins and the loser is
  // cancelled across TEs (its tokens are reclaimed, not double-counted).
  // The delay is max(hedge_floor, observed p95 completion latency) once 16
  // samples exist, hedge_floor until then.
  DurationNs hedge_floor = 0;

  bool hedging() const { return hedge_floor > 0; }
};

// One eligible JE replica as a policy sees it at decision time.
struct JeSnapshot {
  size_t index = 0;        // position in the model's registration order
  int weight = 1;          // ready serving slots (colocated TEs + PD pairs)
  int64_t outstanding = 0; // dispatched through this frontend, not yet terminated
};

struct RouteContext {
  // Eligible replicas (ready capacity, not ejected), ascending index. The
  // mechanism never calls Pick() with an empty candidate list.
  const std::vector<JeSnapshot>& candidates;
  size_t replica_count = 0;  // all registered replicas, eligible or not
  int priority = 1;          // 0 interactive, 1 normal, 2 batch
  // Fleet-wide pressure inputs (include ineligible replicas' outstanding):
  int64_t total_outstanding = 0;
  int total_weight = 0;  // >= 1 whenever candidates is non-empty
};

struct RouteDecision {
  bool shed = false;  // turn the request away (RejectReason::kOverloadShed)
  size_t choice = 0;  // index into ctx.candidates when !shed
};

class RoutePolicy {
 public:
  virtual ~RoutePolicy() = default;
  virtual std::string_view name() const = 0;
  virtual RouteDecision Pick(const RouteContext& ctx) = 0;
};

// Factory keyed on RouteConfig::policy (rr|p2c|wlc|slo).
[[nodiscard]] Result<std::unique_ptr<RoutePolicy>> MakeRoutePolicy(const RouteConfig& config);

// Deterministic least-loaded choice over a candidate list: lowest
// outstanding/weight by cross-multiplication, ties to the higher weight and
// then the lower index. Used by wlc/slo and for hedge-target selection.
size_t PickLeastLoaded(const std::vector<JeSnapshot>& candidates);

// Consecutive-error outlier detector with deterministic, time-based half-open
// re-admission (no scheduled events — state advances when consulted):
//
//     kHealthy --N consecutive errors--> kEjected
//     kEjected --backoff elapsed, Admit()--> kHalfOpen (one probe in flight)
//     kHalfOpen --success--> kHealthy (counters reset, backoff kept)
//     kHalfOpen --error--> kEjected (backoff doubled, capped at eject_max)
//
// Outcomes of requests dispatched before the ejection still feed the monitor;
// the half-open "probe" is therefore approximate — the first outcome to
// arrive settles the probe. That keeps the machine event-free and replayable.
class OutlierMonitor {
 public:
  enum class State { kHealthy, kEjected, kHalfOpen };

  OutlierMonitor(int consecutive_errors, DurationNs base, DurationNs max)
      : threshold_(consecutive_errors), base_(base), max_(max) {}

  // True when this replica may appear in the candidate list at `now`
  // (healthy, or ejected with the backoff elapsed and no probe in flight).
  bool Eligible(TimeNs now) const;
  // Marks a dispatch at `now`. In the elapsed-backoff window this flips
  // kEjected -> kHalfOpen and claims the single probe slot; the mechanism
  // calls it exactly once per dispatch to this replica.
  void OnDispatch(TimeNs now);
  // Dispatch outcomes. OnError returns true when it caused an ejection.
  void OnSuccess();
  bool OnError(TimeNs now);

  State state() const { return state_; }
  int consecutive_errors() const { return consecutive_errors_; }
  int64_t ejections() const { return ejections_; }
  TimeNs ejected_until() const { return ejected_until_; }
  bool enabled() const { return threshold_ > 0; }

 private:
  int threshold_;
  DurationNs base_;
  DurationNs max_;
  State state_ = State::kHealthy;
  int consecutive_errors_ = 0;
  int64_t ejections_ = 0;
  TimeNs ejected_until_ = 0;
  bool probe_in_flight_ = false;
};

// Shared crash-retry budget: re-dispatches across every consumer may not
// exceed floor + ratio * requests-seen. Owned by the frontend, consulted by
// each JE's failure path on top of the per-request JE retry cap.
class RetryBudget {
 public:
  RetryBudget(double ratio, int64_t floor) : ratio_(ratio), floor_(floor) {}

  void OnRequest() { ++requests_; }
  // True = a retry token was available (and is now consumed).
  [[nodiscard]] bool TryAcquire();

  int64_t spent() const { return spent_; }
  int64_t denied() const { return denied_; }

 private:
  double ratio_;
  int64_t floor_;
  int64_t requests_ = 0;
  int64_t spent_ = 0;
  int64_t denied_ = 0;
};

// Bounded ring of completion latencies with an exact-percentile query over
// the retained window (256 samples — the hedge delay tracks recent behaviour,
// not all history).
class LatencyWindow {
 public:
  void Add(DurationNs latency);
  int64_t size() const { return count_; }
  // Exact p-quantile (0 < p <= 1) over the retained samples; 0 when empty.
  DurationNs Percentile(double p) const;

 private:
  static constexpr size_t kCapacity = 256;
  DurationNs samples_[kCapacity] = {};
  size_t next_ = 0;
  int64_t count_ = 0;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_ROUTE_POLICY_H_
