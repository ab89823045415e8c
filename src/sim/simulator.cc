#include "sim/simulator.h"

#include <utility>

namespace deepserve::sim {

void Simulator::SetMetrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    m_scheduled_ = metrics_->counter("sim.events_scheduled");
    m_fired_ = metrics_->counter("sim.events_fired");
    m_cancelled_ = metrics_->counter("sim.events_cancelled");
    m_max_depth_ = metrics_->gauge("sim.event_queue_depth_max");
  } else {
    m_scheduled_ = nullptr;
    m_fired_ = nullptr;
    m_cancelled_ = nullptr;
    m_max_depth_ = nullptr;
  }
}

EventId Simulator::ScheduleAt(TimeNs t, EventFn fn, TimeNs as_of) {
  DS_CHECK_GE(t, now_) << "cannot schedule into the past";
  DS_CHECK(fn != nullptr);
  EventId id = queue_.Insert(t, as_of, std::move(fn));
  if (m_scheduled_ != nullptr) {
    m_scheduled_->Inc();
    m_max_depth_->SetMax(static_cast<double>(queue_.live()));
  }
  return id;
}

bool Simulator::Cancel(EventId id) {
  if (!queue_.Cancel(id)) {
    return false;
  }
  if (m_cancelled_ != nullptr) {
    m_cancelled_->Inc();
  }
  return true;
}

bool Simulator::FireNext(TimeNs until) {
  TimeNs t = 0;
  TimeNs as_of = 0;
  EventFn fn;
  if (!queue_.PopIfDue(until, &t, &as_of, &fn)) {
    return false;
  }
  firing_as_of_ = as_of;
  DS_CHECK_GE(t, now_);
  now_ = t;
  ++fired_count_;
  if (m_fired_ != nullptr) {
    m_fired_->Inc();
  }
  fn();
  return true;
}

bool Simulator::Step() { return FireNext(kTimeNever); }

size_t Simulator::Run() {
  size_t fired = 0;
  while (Step()) {
    ++fired;
  }
  return fired;
}

size_t Simulator::RunUntil(TimeNs t) {
  DS_CHECK_GE(t, now_);
  size_t fired = 0;
  while (FireNext(t)) {
    ++fired;
  }
  now_ = t;
  firing_as_of_ = kTimeNever;
  return fired;
}

}  // namespace deepserve::sim
