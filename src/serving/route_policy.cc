#include "serving/route_policy.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "serving/route/p2c_policy.h"
#include "serving/route/rr_policy.h"
#include "serving/route/slo_policy.h"
#include "serving/route/wlc_policy.h"

namespace deepserve::serving {

std::string_view RejectReasonToString(RejectReason reason) {
  switch (reason) {
    case RejectReason::kUnknownModel:
      return "unknown_model";
    case RejectReason::kNoCapacity:
      return "no_capacity";
    case RejectReason::kDeadline:
      return "deadline";
    case RejectReason::kOverloadShed:
      return "overload_shed";
    case RejectReason::kEjected:
      return "ejected";
  }
  return "?";
}

Result<std::unique_ptr<RoutePolicy>> MakeRoutePolicy(const RouteConfig& config) {
  if (config.policy == "rr") {
    return std::unique_ptr<RoutePolicy>(std::make_unique<RrRoutePolicy>());
  }
  if (config.policy == "p2c") {
    return std::unique_ptr<RoutePolicy>(std::make_unique<P2cRoutePolicy>(config.seed));
  }
  if (config.policy == "wlc") {
    return std::unique_ptr<RoutePolicy>(std::make_unique<WlcRoutePolicy>());
  }
  if (config.policy == "slo") {
    return std::unique_ptr<RoutePolicy>(std::make_unique<SloRoutePolicy>());
  }
  return InvalidArgumentError("unknown route policy \"" + config.policy +
                              "\" (rr|p2c|wlc|slo)");
}

Status RouteConfig::Validate() const {
  if (Result<std::unique_ptr<RoutePolicy>> made = MakeRoutePolicy(*this); !made.ok()) {
    return made.status();
  }
  if (eject_consecutive_errors < 0) {
    return InvalidArgumentError("outlier ejection error count must be >= 0, got " +
                                std::to_string(eject_consecutive_errors));
  }
  if (eject_base < 0 || eject_max < eject_base) {
    return InvalidArgumentError("outlier ejection needs 0 <= eject_base <= eject_max");
  }
  if (hedge_floor < 0) {
    return InvalidArgumentError("hedge delay floor must be >= 0");
  }
  if (retry_floor < 0) {
    return InvalidArgumentError("retry budget floor must be >= 0, got " +
                                std::to_string(retry_floor));
  }
  return Status::Ok();
}

size_t PickLeastLoaded(const std::vector<JeSnapshot>& candidates) {
  DS_CHECK(!candidates.empty());
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const JeSnapshot& a = candidates[i];
    const JeSnapshot& b = candidates[best];
    // a.outstanding / a.weight < b.outstanding / b.weight, kept integral.
    int64_t lhs = a.outstanding * static_cast<int64_t>(b.weight);
    int64_t rhs = b.outstanding * static_cast<int64_t>(a.weight);
    if (lhs < rhs || (lhs == rhs && a.weight > b.weight)) {
      best = i;
    }
  }
  return best;
}

// ---------------- OutlierMonitor ----------------

bool OutlierMonitor::Eligible(TimeNs now) const {
  if (!enabled() || state_ == State::kHealthy) {
    return true;
  }
  if (state_ == State::kHalfOpen) {
    return !probe_in_flight_;
  }
  return now >= ejected_until_;
}

void OutlierMonitor::OnDispatch(TimeNs now) {
  if (!enabled()) {
    return;
  }
  if (state_ == State::kEjected && now >= ejected_until_) {
    state_ = State::kHalfOpen;
    probe_in_flight_ = true;
  } else if (state_ == State::kHalfOpen) {
    probe_in_flight_ = true;
  }
}

void OutlierMonitor::OnSuccess() {
  consecutive_errors_ = 0;
  if (state_ != State::kHealthy) {
    state_ = State::kHealthy;
    probe_in_flight_ = false;
  }
}

bool OutlierMonitor::OnError(TimeNs now) {
  if (!enabled()) {
    return false;
  }
  if (state_ == State::kHalfOpen) {
    // Probe (or a straggler from before the ejection) failed: back off again,
    // twice as long.
    ++consecutive_errors_;
    ++ejections_;
    state_ = State::kEjected;
    probe_in_flight_ = false;
    DurationNs backoff = base_;
    for (int64_t i = 1; i < ejections_ && backoff < max_; ++i) {
      backoff *= 2;
    }
    ejected_until_ = now + std::min(backoff, max_);
    return true;
  }
  ++consecutive_errors_;
  if (state_ == State::kHealthy && consecutive_errors_ >= threshold_) {
    ++ejections_;
    state_ = State::kEjected;
    DurationNs backoff = base_;
    for (int64_t i = 1; i < ejections_ && backoff < max_; ++i) {
      backoff *= 2;
    }
    ejected_until_ = now + std::min(backoff, max_);
    return true;
  }
  return false;
}

// ---------------- RetryBudget ----------------

bool RetryBudget::TryAcquire() {
  int64_t cap = floor_ + static_cast<int64_t>(ratio_ * static_cast<double>(requests_));
  if (spent_ >= cap) {
    ++denied_;
    return false;
  }
  ++spent_;
  return true;
}

// ---------------- LatencyWindow ----------------

void LatencyWindow::Add(DurationNs latency) {
  samples_[next_] = latency;
  next_ = (next_ + 1) % kCapacity;
  ++count_;
}

DurationNs LatencyWindow::Percentile(double p) const {
  size_t n = static_cast<size_t>(std::min<int64_t>(count_, kCapacity));
  if (n == 0) {
    return 0;
  }
  DurationNs sorted[kCapacity];
  std::copy(samples_, samples_ + n, sorted);
  std::sort(sorted, sorted + n);
  size_t rank = static_cast<size_t>(p * static_cast<double>(n));
  return sorted[std::min(rank, n - 1)];
}

}  // namespace deepserve::serving
