// Discrete-event simulation core.
//
// All timing in DeepServe flows through one Simulator: a virtual clock plus a
// binary heap of (time, sequence, callback) events. The real system's
// threads — FlowServe's sched-enqueue / sched-loop, RTC's background swapper,
// DistFlow's transfer workers, the autoscaler's control loop — become event
// chains here, so "asynchrony" is genuine overlap in virtual time and every
// run replays deterministically. Events at equal timestamps fire in
// scheduling order (FIFO tie-break), which keeps causality intuitive. One
// event may instead be ordered as if it had been scheduled at another instant
// (see the three-argument ScheduleAt): that is how a single event stands in
// for a chain of events, each of which would have scheduled the next.
//
// The storage under the clock is sim/event_queue.h: slab-allocated event
// records addressed by generation-checked handles, ordered by a binary heap
// that sweeps cancelled entries. EventIds are those handles, so Cancel() is
// an O(1) tombstone and cancelling a fired, cancelled, or never-issued id is
// detected exactly (a true no-op returning false) instead of by the
// global-count heuristic the original lazy-deletion core used.
#ifndef DEEPSERVE_SIM_SIMULATOR_H_
#define DEEPSERVE_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/small_fn.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace deepserve::sim {

// Event callbacks are small-buffer-optimized and move-only; any callable
// (lambda, std::function, function pointer) converts implicitly.
using EventFn = common::SmallFn;
using EventId = EventQueue::Handle;

inline constexpr EventId kInvalidEventId = EventQueue::kNilHandle;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules fn at absolute virtual time t (>= Now()). Returns an id usable
  // with Cancel().
  EventId ScheduleAt(TimeNs t, EventFn fn) { return ScheduleAt(t, std::move(fn), now_); }

  // As above, but among the events due at t, fn fires as if it had been
  // scheduled at `as_of` (<= t) instead of now: after every event scheduled
  // before `as_of` and before every event scheduled after it. Events
  // scheduled at the same instant fire in insertion order.
  EventId ScheduleAt(TimeNs t, EventFn fn, TimeNs as_of);

  // Schedules fn after the given delay (>= 0).
  EventId ScheduleAfter(DurationNs delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event. Returns true if the event existed and had not
  // yet fired; cancelling a fired, already-cancelled, or unknown id is a
  // harmless no-op returning false (the handle's generation detects it —
  // counts are never touched).
  bool Cancel(EventId id);

  // True iff `id` names a scheduled, not-yet-fired event.
  bool IsScheduled(EventId id) const { return queue_.Live(id); }

  // Runs events until the queue drains. Returns the number of events fired.
  size_t Run();

  // Runs events with timestamp <= t, then advances the clock to exactly t
  // (even if the queue drained earlier). Returns events fired.
  size_t RunUntil(TimeNs t);

  // Fires the single earliest event. Returns false if the queue is empty.
  bool Step();

  // The scheduled-at instant of the event firing now (or fired last). After
  // RunUntil it is kTimeNever: every event due by then has fired. An event
  // due at Now() that was scheduled before this instant has fired already;
  // one scheduled after it has not.
  TimeNs FiringScheduledAt() const { return firing_as_of_; }

  bool Empty() const { return queue_.empty(); }
  size_t PendingEvents() const { return queue_.live(); }
  uint64_t TotalFired() const { return fired_count_; }

  // ---- observability attach points ----------------------------------------
  // The Simulator is the one object every subsystem already holds, so it is
  // the distribution point for the (optional) tracer and metrics registry.
  // Both are owned by the caller and may be attached at any time; a null
  // pointer (the default) means tracing/metrics are disabled and every
  // instrumentation site reduces to one pointer compare.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }
  void SetMetrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  // The one fire step of Step, Run and RunUntil: pops the earliest event due
  // at or before `until`, advances the clock to it and runs it. False when
  // no such event exists.
  bool FireNext(TimeNs until);

  TimeNs now_ = 0;
  TimeNs firing_as_of_ = 0;
  uint64_t fired_count_ = 0;
  EventQueue queue_;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Cached registry handles (registered once in SetMetrics) so the hot
  // schedule/fire paths never do a name lookup.
  obs::Counter* m_scheduled_ = nullptr;
  obs::Counter* m_fired_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Gauge* m_max_depth_ = nullptr;
};

// Fixed-interval control loop (heartbeats, autoscaler ticks, samplers). The
// body runs BEFORE the next firing is scheduled, so at equal timestamps the
// re-scheduled tick keeps the same FIFO position a hand-rolled
// "run-then-ScheduleAfter" loop would have — replacing such a loop with a
// PeriodicTask is replay-identical.
//
// Restart safety: every Start()/Stop() bumps an epoch; an in-flight firing
// carries the epoch it was scheduled under and goes inert when they differ.
// In particular Start() called from inside the task's own callback replaces
// the chain instead of forking a second, uncancellable one.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  ~PeriodicTask() { Stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // First firing is one interval from now. Restarting an already-running task
  // cancels the pending firing first.
  void Start(Simulator* sim, DurationNs interval, EventFn fn) {
    DS_CHECK(sim != nullptr);
    DS_CHECK(interval > 0);
    Stop();
    sim_ = sim;
    interval_ = interval;
    // Held behind a shared_ptr so a Start() issued from inside the running
    // callback can swap fn_ without destroying the closure mid-call.
    fn_ = std::make_shared<EventFn>(std::move(fn));
    running_ = true;
    // ds-lint: allow(deferred-capture, epoch guard — Fire() no-ops when Stop()/Start() bumped epoch_; owner must Stop() before destruction per class comment)
    event_ = sim_->ScheduleAfter(interval_, [this, epoch = epoch_] { Fire(epoch); });
  }

  void Stop() {
    running_ = false;
    ++epoch_;  // any in-flight firing from the previous chain goes inert
    if (sim_ != nullptr && event_ != kInvalidEventId) {
      sim_->Cancel(event_);
    }
    event_ = kInvalidEventId;
  }

  bool running() const { return running_; }

 private:
  void Fire(uint64_t epoch) {
    if (!running_ || epoch != epoch_) {
      return;  // stale chain: stopped or restarted since this was scheduled
    }
    event_ = kInvalidEventId;
    auto keep = fn_;  // survives a Start()/Stop() issued by the body
    (*keep)();
    if (running_ && epoch == epoch_) {  // body may have called Stop()/Start()
      // ds-lint: allow(deferred-capture, epoch guard — the re-arm carries the epoch it fired under and goes inert if the chain was restarted)
      event_ = sim_->ScheduleAfter(interval_, [this, epoch] { Fire(epoch); });
    }
  }

  Simulator* sim_ = nullptr;
  DurationNs interval_ = 0;
  std::shared_ptr<EventFn> fn_;
  bool running_ = false;
  uint64_t epoch_ = 0;
  EventId event_ = kInvalidEventId;
};

}  // namespace deepserve::sim

#endif  // DEEPSERVE_SIM_SIMULATOR_H_
