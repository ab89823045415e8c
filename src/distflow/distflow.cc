#include "distflow/distflow.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::distflow {

namespace {

// Control-plane cost of establishing one round of endpoint pairs.
constexpr DurationNs kLinkSetupCost = MsToNs(2);

std::pair<EndpointId, EndpointId> Canonical(EndpointId a, EndpointId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

TransferEngine::TransferEngine(sim::Simulator* sim, hw::Cluster* cluster, DistFlowConfig config)
    : sim_(sim), cluster_(cluster), config_(config) {
  DS_CHECK(sim != nullptr);
  DS_CHECK(cluster != nullptr);
  DS_CHECK_GT(config_.num_workers, 0);
  worker_busy_until_.assign(static_cast<size_t>(config_.num_workers), 0);
}

Status TransferEngine::RegisterEndpoint(EndpointId id, hw::NpuId npu) {
  if (id == kInvalidEndpoint) {
    return InvalidArgumentError("invalid endpoint id");
  }
  if (npu < 0 || npu >= cluster_->total_npus()) {
    return InvalidArgumentError("endpoint NPU out of range: " + std::to_string(npu));
  }
  if (!endpoints_.emplace(id, npu).second) {
    return AlreadyExistsError("endpoint " + std::to_string(id) + " already registered");
  }
  return Status::Ok();
}

Status TransferEngine::LinkCluster(const std::vector<EndpointId>& group,
                                   std::function<void()> on_ready) {
  for (EndpointId id : group) {
    if (!HasEndpoint(id)) {
      return NotFoundError("cannot link unregistered endpoint " + std::to_string(id));
    }
  }
  int new_pairs = 0;
  for (size_t i = 0; i < group.size(); ++i) {
    for (size_t j = i + 1; j < group.size(); ++j) {
      if (links_.insert(Canonical(group[i], group[j])).second) {
        ++new_pairs;
      }
    }
  }
  // Pair setup is parallelized across the group; charge one setup round.
  DurationNs cost = new_pairs > 0 ? kLinkSetupCost : 0;
  if (on_ready) {
    sim_->ScheduleAfter(cost, std::move(on_ready));
  }
  return Status::Ok();
}

bool TransferEngine::Linked(EndpointId a, EndpointId b) const {
  if (a == b) {
    return true;
  }
  return links_.count(Canonical(a, b)) > 0;
}

Result<TransferEngine::Route> TransferEngine::Resolve(const MemRegion& src,
                                                      const MemRegion& dst) const {
  auto src_it = endpoints_.find(src.endpoint);
  auto dst_it = endpoints_.find(dst.endpoint);
  if (src_it == endpoints_.end() || dst_it == endpoints_.end()) {
    return NotFoundError("transfer endpoint not registered");
  }
  hw::NpuId src_npu = src_it->second;
  hw::NpuId dst_npu = dst_it->second;
  hw::MachineId src_machine = cluster_->machine_of(src_npu);
  hw::MachineId dst_machine = cluster_->machine_of(dst_npu);
  int src_local = src_npu % cluster_->config().npus_per_machine;
  int dst_local = dst_npu % cluster_->config().npus_per_machine;

  Route route;
  if (src_machine == dst_machine) {
    // Tier moves within one machine.
    hw::Machine* machine = cluster_->machine(src_machine);
    auto tier_hop = [&](rtc::Tier from, rtc::Tier to, int local_npu) -> hw::SharedLink* {
      if (from == to) {
        return nullptr;
      }
      bool touches_ssd = from == rtc::Tier::kSsd || to == rtc::Tier::kSsd;
      bool touches_npu = from == rtc::Tier::kNpu || to == rtc::Tier::kNpu;
      if (touches_ssd && !touches_npu) {
        return machine->ssd_link();
      }
      return machine->pcie_link_for(local_npu);
    };
    if (src.tier == rtc::Tier::kSsd && dst.tier == rtc::Tier::kNpu) {
      route.hops.push_back(machine->ssd_link());
      route.hops.push_back(machine->pcie_link_for(dst_local));
    } else if (src.tier == rtc::Tier::kNpu && dst.tier == rtc::Tier::kSsd) {
      route.hops.push_back(machine->pcie_link_for(src_local));
      route.hops.push_back(machine->ssd_link());
    } else if (src.tier == rtc::Tier::kNpu && dst.tier == rtc::Tier::kNpu &&
               src_npu != dst_npu) {
      // NPU-to-NPU inside one machine rides the scale-up fabric.
      route.hops.push_back(cluster_->hccs_link(src_machine));
    } else if (hw::SharedLink* hop = tier_hop(src.tier, dst.tier, src_local)) {
      route.hops.push_back(hop);
    }
    return route;
  }

  // Cross-machine: stage up to NPU/DRAM, cross the fabric, stage down.
  if (src.tier == rtc::Tier::kSsd) {
    route.hops.push_back(cluster_->machine(src_machine)->ssd_link());
  }
  hw::SharedLink* fabric =
      config_.force_backend
          ? cluster_->LinkOfType(src_machine, config_.forced_backend)
          : cluster_->InterNpuLink(src_npu, dst_npu);
  route.hops.push_back(fabric);
  if (dst.tier == rtc::Tier::kSsd) {
    route.hops.push_back(cluster_->machine(dst_machine)->ssd_link());
  }
  return route;
}

void TransferEngine::SubmitViaWorker(EndpointId src, EndpointId dst,
                                     std::function<void()> start) {
  // Shard by endpoint pair so one hot pair cannot block the whole engine —
  // unless num_workers is 1, which reproduces the serialized anti-design.
  size_t shard = static_cast<size_t>((static_cast<uint64_t>(src) * 2654435761u +
                                      static_cast<uint64_t>(dst) * 40503u) %
                                     static_cast<uint64_t>(config_.num_workers));
  TimeNs free_at = std::max(worker_busy_until_[shard], sim_->Now());
  worker_busy_until_[shard] = free_at + config_.per_op_overhead;
  sim_->ScheduleAt(worker_busy_until_[shard], std::move(start));
}

void TransferEngine::RunHops(std::vector<hw::SharedLink*> hops, size_t index, Bytes bytes,
                             std::function<void()> on_complete) {
  if (index >= hops.size()) {
    if (on_complete) {
      on_complete();
    }
    return;
  }
  hw::SharedLink* hop = hops[index];
  hop->StartFlow(bytes, [this, hops = std::move(hops), index, bytes,
                         cb = std::move(on_complete)]() mutable {
    RunHops(std::move(hops), index + 1, bytes, std::move(cb));
  });
}

Status TransferEngine::Transfer(const MemRegion& src, const MemRegion& dst,
                                std::function<void()> on_complete) {
  if (!Linked(src.endpoint, dst.endpoint)) {
    ++stats_.rejected;
    return FailedPreconditionError("endpoints not linked: " + std::to_string(src.endpoint) +
                                   " <-> " + std::to_string(dst.endpoint));
  }
  auto route = Resolve(src, dst);
  if (!route.ok()) {
    ++stats_.rejected;
    return route.status();
  }
  Bytes bytes = std::min(src.length, dst.length);
  ++stats_.transfers;
  stats_.bytes_moved += bytes;
  if (route->hops.size() > 1) {
    ++stats_.multi_hop_transfers;
  }
  if (route->hops.empty()) {
    // Same tier, same device: memcpy-class move, charged only worker overhead.
    SubmitViaWorker(src.endpoint, dst.endpoint, std::move(on_complete));
    return Status::Ok();
  }
  SubmitViaWorker(src.endpoint, dst.endpoint,
                  [this, hops = route->hops, bytes, cb = std::move(on_complete)]() mutable {
                    RunHops(std::move(hops), 0, bytes, std::move(cb));
                  });
  return Status::Ok();
}

Result<DurationNs> TransferEngine::EstimateTransfer(const MemRegion& src,
                                                    const MemRegion& dst) const {
  auto route = Resolve(src, dst);
  if (!route.ok()) {
    return route.status();
  }
  Bytes bytes = std::min(src.length, dst.length);
  DurationNs total = config_.per_op_overhead;
  for (hw::SharedLink* hop : route->hops) {
    // Account for current contention: active flows share the link.
    double share = static_cast<double>(hop->active_flows() + 1);
    total += hop->latency() +
             SToNs(static_cast<double>(bytes) * share /
                         (hop->bandwidth_bps() * hop->bandwidth_scale()));
  }
  return total;
}

}  // namespace deepserve::distflow
