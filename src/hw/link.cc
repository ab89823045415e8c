#include "hw/link.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::hw {

SharedLink::SharedLink(sim::Simulator* sim, std::string name, LinkType type, double bandwidth_bps,
                       DurationNs latency)
    : sim_(sim), name_(std::move(name)), type_(type), bandwidth_bps_(bandwidth_bps),
      latency_(latency) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK_GT(bandwidth_bps_, 0.0);
  DS_CHECK_GE(latency_, 0);
}

double SharedLink::PerFlowRate() const {
  if (flows_.empty()) {
    return 0.0;
  }
  return bandwidth_bps_ * bandwidth_scale_ / static_cast<double>(flows_.size());
}

void SharedLink::AdvanceProgress() {
  TimeNs now = sim_->Now();
  if (now > last_update_ && !flows_.empty()) {
    double progressed = PerFlowRate() * NsToS(now - last_update_);
    for (Flow& flow : flows_) {
      flow.remaining_bytes = std::max(0.0, flow.remaining_bytes - progressed);
    }
  }
  last_update_ = now;
}

void SharedLink::Reschedule() {
  if (pending_event_ != sim::kInvalidEventId) {
    sim_->Cancel(pending_event_);
    pending_event_ = sim::kInvalidEventId;
  }
  if (flows_.empty()) {
    return;
  }
  double min_remaining = flows_.front().remaining_bytes;
  for (const Flow& flow : flows_) {
    min_remaining = std::min(min_remaining, flow.remaining_bytes);
  }
  double rate = PerFlowRate();
  // Round UP: an ETA truncated to the current tick would advance zero bytes
  // and re-arm at the same timestamp forever.
  DurationNs eta =
      rate > 0.0 ? static_cast<DurationNs>(std::ceil(min_remaining / rate * 1e9)) : 1;
  pending_event_ = sim_->ScheduleAfter(std::max<DurationNs>(eta, 1), [this] {
    pending_event_ = sim::kInvalidEventId;
    CompleteEarliest();
  });
}

void SharedLink::CompleteEarliest() {
  AdvanceProgress();
  // Collect every flow that is (numerically) done, a sub-byte residue
  // included; ties complete together, in start order.
  auto finished = [](const Flow& flow) { return flow.remaining_bytes <= 0.5; };
  std::vector<std::function<void()>> done;
  for (Flow& flow : flows_) {
    if (finished(flow)) {
      done.push_back(std::move(flow.on_complete));
    }
  }
  std::erase_if(flows_, finished);
  Reschedule();
  for (auto& fn : done) {
    if (fn) {
      fn();
    }
  }
}

void SharedLink::StartFlow(Bytes bytes, std::function<void()> on_complete) {
  total_bytes_ += bytes;
  // The latency prologue runs before the flow starts competing for bandwidth.
  sim_->ScheduleAfter(latency_, [this, bytes, cb = std::move(on_complete)]() mutable {
    AdvanceProgress();
    if (bytes == 0) {
      if (cb) {
        cb();
      }
      return;
    }
    flows_.push_back(Flow{static_cast<double>(bytes), std::move(cb)});
    Reschedule();
  });
}

void SharedLink::SetBandwidthScale(double scale) {
  DS_CHECK_GT(scale, 0.0);
  AdvanceProgress();
  bandwidth_scale_ = scale;
  Reschedule();
}

DurationNs SharedLink::IsolatedDuration(Bytes bytes) const {
  return latency_ + SToNs(static_cast<double>(bytes) / bandwidth_bps_);
}

}  // namespace deepserve::hw
