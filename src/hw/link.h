// Shared communication / IO links with processor-sharing bandwidth.
//
// A SharedLink models one physical channel (a PCIe root link, an HCCS port,
// a RoCE NIC, an SSD's read path). Concurrent flows share bandwidth equally
// (processor sharing): whenever a flow starts or finishes, the progress of
// all active flows is advanced and the next completion is rescheduled. This
// is what produces the paper's observed effects — e.g. Fig. 9's growth of
// local model-load time with TP rank, because TP peers share PCIe links.
#ifndef DEEPSERVE_HW_LINK_H_
#define DEEPSERVE_HW_LINK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace deepserve::hw {

// kUb is the SuperPod-class unified-bus scale-up fabric (CloudMatrix-style):
// wider than HCCS, spanning whole SuperPods rather than single scale-up
// domains. Built only when ClusterConfig::enable_superpod is set.
enum class LinkType { kPcie, kHccs, kRoce, kSsd, kMemcpy, kUb };

class SharedLink {
 public:
  // bandwidth is in bytes per second; latency is the fixed per-flow setup
  // cost added ahead of the first byte.
  SharedLink(sim::Simulator* sim, std::string name, LinkType type, double bandwidth_bps,
             DurationNs latency);

  SharedLink(const SharedLink&) = delete;
  SharedLink& operator=(const SharedLink&) = delete;

  // Starts a flow of `bytes`; `on_complete` fires (via the simulator) when the
  // last byte lands. Zero-byte flows complete after just the latency.
  void StartFlow(Bytes bytes, std::function<void()> on_complete);

  // Multiplicative slowdown applied to this link's bandwidth, e.g. to model
  // compute/transfer contention on a busy source NPU. 1.0 = full speed.
  void SetBandwidthScale(double scale);
  double bandwidth_scale() const { return bandwidth_scale_; }

  size_t active_flows() const { return flows_.size(); }
  const std::string& name() const { return name_; }
  LinkType type() const { return type_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  DurationNs latency() const { return latency_; }
  Bytes total_bytes_transferred() const { return total_bytes_; }

  // Duration an isolated flow of `bytes` would take (latency + serialized
  // transfer); used for "theoretical" reference rows in the benches.
  DurationNs IsolatedDuration(Bytes bytes) const;

 private:
  struct Flow {
    double remaining_bytes;
    std::function<void()> on_complete;
  };

  // Advances every active flow's progress to Now() at the current per-flow
  // rate, then re-schedules the earliest completion.
  void AdvanceProgress();
  void Reschedule();
  void CompleteEarliest();
  double PerFlowRate() const;

  sim::Simulator* sim_;
  std::string name_;
  LinkType type_;
  double bandwidth_bps_;
  DurationNs latency_;
  double bandwidth_scale_ = 1.0;

  // Active flows in start order. Every flow pays the same latency, so start
  // order is the order flows join, and flows that finish together complete
  // in it.
  std::vector<Flow> flows_;
  TimeNs last_update_ = 0;
  sim::EventId pending_event_ = sim::kInvalidEventId;
  Bytes total_bytes_ = 0;
};

}  // namespace deepserve::hw

#endif  // DEEPSERVE_HW_LINK_H_
