// Replicated control plane, part 3: the one leader protocol (DESIGN #10).
//
// The JobExecutor (over a JobTable) and the ClusterManager (over a
// TeDirectory) reach their state machine only through a Leader's const
// state(). The Leader owns the log attachment, Append, the up/down state, the
// outage park queue (an op parks whenever the leader is down), the
// epoch-guarded takeover timer (replicated logs only) and the replay-checked
// takeover: replay/check/swap -> kEpoch record -> before_drain -> parked ops
// in arrival order -> after_drain. The owner supplies those LeaderSteps.
#ifndef DEEPSERVE_CTRL_LEADER_H_
#define DEEPSERVE_CTRL_LEADER_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/small_fn.h"
#include "ctrl/control_log.h"  // also Status, TimeNs, Simulator, Prompt
#include "ctrl/job_table.h"
#include "obs/metrics.h"

namespace deepserve::ctrl {

// The owner's stats fields the leader keeps current.
struct LeaderCounters {
  int64_t* crashes;
  int64_t* failovers;
  int64_t* parked;  // ops parked during outages
  DurationNs* outage_total;
};

// The owner's domain steps around the protocol.
struct LeaderSteps {
  common::SmallFn on_crash;      // at a crash, while the leader is still up
  common::SmallFn before_drain;  // at takeover, after the epoch record
  common::SmallFn after_drain;   // at takeover, after the parked ops
};

template <typename Machine>
class Leader {
 public:
  // `log` == nullptr: a private degenerate log (single replica, zero
  // latency), bit-identical to state held in plain members.
  Leader(sim::Simulator* sim, ControlLog* log, LeaderCounters counters, LeaderSteps steps)
      : sim_(sim), log_(log), counters_(counters), steps_(std::move(steps)) {
    DS_CHECK(sim_ != nullptr);
    if (log_ == nullptr) {
      owned_log_ = std::make_unique<ControlLog>(sim_);
      log_ = owned_log_.get();
    }
    Attach();
  }
  ~Leader() { log_->Detach(state_.domain()); }

  // Not copyable or movable: the takeover timer captures `this`.
  Leader(const Leader&) = delete;
  Leader& operator=(const Leader&) = delete;

  // Moves the domain onto the shared `log`. Only before the first record.
  void MoveTo(ControlLog* log) {
    DS_CHECK(log != nullptr);
    DS_CHECK(state_.applied() == 0) << state_.name() << " leader moved after its first record";
    log_->Detach(state_.domain());
    log_ = log;
    owned_log_.reset();
    Attach();
  }

  const Machine& state() const { return state_; }
  ControlLog* log() const { return log_; }
  bool up() const { return !down_; }
  TimeNs crash_time() const { return crash_time_; }

  // Appends one record of this leader's domain.
  void Append(int32_t type, std::initializer_list<int64_t> ints = {}, std::string_view str = {},
              workload::Prompt prompt = {}) {
    Append(type, std::span<const int64_t>(ints.begin(), ints.size()), str, std::move(prompt));
  }
  void Append(int32_t type, std::span<const int64_t> ints, std::string_view str = {},
              workload::Prompt prompt = {}) {
    log_->Append(state_.domain(), type, ints, str, std::move(prompt));
  }

  // Parks `op` until the next takeover. Only while the leader is down.
  void Park(common::SmallFn op) {
    DS_CHECK(down_) << "parking on a live " << state_.name() << " leader";
    ++*counters_.parked;
    parked_.push_back(std::move(op));
  }
  void RunOrPark(common::SmallFn op) { down_ ? Park(std::move(op)) : op(); }

  // FAILED_PRECONDITION when already down.
  [[nodiscard]] Status Crash() {
    if (down_) {
      return FailedPreconditionError(std::string(state_.name()) + " leader already down");
    }
    crash_time_ = sim_->Now();
    ++*counters_.crashes;
    if (obs::MetricsRegistry* m = sim_->metrics()) {
      (kJe ? m->counter("je.ctrl.crashes") : m->counter("cm.ctrl.crashes"))->Inc();
    }
    steps_.on_crash();
    down_ = true;
    if (log_->replicated()) {
      const int64_t epoch_at_crash = state_.epoch();
      // ds-lint: allow(deferred-capture, epoch guard — the timer goes inert once any takeover bumped the epoch; the owner outlives its simulator run)
      sim_->ScheduleAfter(log_->FailoverDelay(crash_time_), [this, epoch_at_crash] {
        if (down_ && state_.epoch() == epoch_at_crash) {
          (void)Takeover();
        }
      });
    }
    return Status::Ok();
  }

  // FAILED_PRECONDITION when up.
  [[nodiscard]] Status Takeover() {
    if (!down_) {
      return FailedPreconditionError(std::string(state_.name()) + " leader is up");
    }
    // A fresh machine built from nothing but the log must reconstruct the
    // live state bit-for-bit. Assignment keeps the log's attachment valid.
    Machine standby(state_.domain());
    log_->ReplayInto(&standby);
    DS_CHECK(standby.Fingerprint() == state_.Fingerprint())
        << "control-log replay diverged from the live " << state_.name()
        << " — a mutation bypassed the log";
    state_ = std::move(standby);
    down_ = false;
    Append(Machine::kEpoch);
    const DurationNs outage = sim_->Now() - crash_time_;
    ++*counters_.failovers;
    *counters_.outage_total += outage;
    if (obs::MetricsRegistry* m = sim_->metrics()) {
      (kJe ? m->counter("je.ctrl.failovers") : m->counter("cm.ctrl.failovers"))->Inc();
      (kJe ? m->stats("je.ctrl.outage_ms") : m->stats("cm.ctrl.outage_ms"))->Add(NsToMs(outage));
    }
    steps_.before_drain();
    std::vector<common::SmallFn> ops;
    ops.swap(parked_);
    for (common::SmallFn& op : ops) {
      op();
    }
    steps_.after_drain();
    return Status::Ok();
  }

 private:
  // Metric names stay literals so the registered set is statically known.
  static constexpr bool kJe = std::is_same_v<Machine, JobTable>;

  void Attach() {
    state_.set_domain(log_->RegisterDomain(std::string(state_.name())));
    log_->Attach(&state_);
  }

  sim::Simulator* sim_;
  std::unique_ptr<ControlLog> owned_log_;
  ControlLog* log_;
  Machine state_;
  LeaderCounters counters_;
  LeaderSteps steps_;
  bool down_ = false;
  TimeNs crash_time_ = 0;
  std::vector<common::SmallFn> parked_;
};

}  // namespace deepserve::ctrl

#endif  // DEEPSERVE_CTRL_LEADER_H_
