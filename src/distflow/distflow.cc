#include "distflow/distflow.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::distflow {

namespace {

// Control-plane cost of establishing one round of endpoint pairs.
constexpr DurationNs kLinkSetupCost = MsToNs(2);
// Worker shards submitting transfer ops, sized so one hot endpoint pair
// cannot hold up the others.
constexpr uint64_t kNumWorkers = 8;

std::pair<EndpointId, EndpointId> Canonical(EndpointId a, EndpointId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

TransferEngine::TransferEngine(sim::Simulator* sim, hw::Cluster* cluster, DistFlowConfig config)
    : sim_(sim), cluster_(cluster), config_(config) {
  DS_CHECK(sim != nullptr);
  DS_CHECK(cluster != nullptr);
  worker_busy_until_.assign(kNumWorkers, 0);
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

Result<hw::SharedLink*> TransferEngine::Resolve(const MemRegion& src,
                                                const MemRegion& dst) const {
  auto src_it = endpoints_.find(src.endpoint);
  auto dst_it = endpoints_.find(dst.endpoint);
  if (src_it == endpoints_.end() || dst_it == endpoints_.end()) {
    return NotFoundError("transfer endpoint not registered");
  }
  hw::NpuId src_npu = src_it->second;
  hw::NpuId dst_npu = dst_it->second;
  hw::MachineId src_machine = cluster_->machine_of(src_npu);
  if (src_machine != cluster_->machine_of(dst_npu)) {
    return cluster_->InterNpuLink(src_npu, dst_npu);
  }
  if (src.tier != dst.tier) {
    // NPU <-> DRAM rides the source NPU's PCIe link.
    return cluster_->machine(src_machine)->pcie_link_for(src_npu %
                                                         cluster_->config().npus_per_machine);
  }
  if (src.tier == rtc::Tier::kNpu && src_npu != dst_npu) {
    // NPU-to-NPU inside one machine rides the scale-up fabric.
    return cluster_->hccs_link(src_machine);
  }
  return nullptr;
}

void TransferEngine::SubmitViaWorker(EndpointId src, EndpointId dst,
                                     std::function<void()> start) {
  // Shard by endpoint pair so one hot pair cannot block the whole engine.
  size_t shard = static_cast<size_t>((static_cast<uint64_t>(src) * 2654435761u +
                                      static_cast<uint64_t>(dst) * 40503u) %
                                     kNumWorkers);
  TimeNs free_at = std::max(worker_busy_until_[shard], sim_->Now());
  worker_busy_until_[shard] = free_at + config_.per_op_overhead;
  if (start) {
    sim_->ScheduleAt(worker_busy_until_[shard], std::move(start));
  }
}

Status TransferEngine::Transfer(const MemRegion& src, const MemRegion& dst,
                                std::function<void()> on_complete) {
  if (!Linked(src.endpoint, dst.endpoint)) {
    ++stats_.rejected;
    return FailedPreconditionError("endpoints not linked: " + std::to_string(src.endpoint) +
                                   " <-> " + std::to_string(dst.endpoint));
  }
  auto link = Resolve(src, dst);
  if (!link.ok()) {
    ++stats_.rejected;
    return link.status();
  }
  Bytes bytes = std::min(src.length, dst.length);
  ++stats_.transfers;
  stats_.bytes_moved += bytes;
  if (*link == nullptr) {
    SubmitViaWorker(src.endpoint, dst.endpoint, std::move(on_complete));
    return Status::Ok();
  }
  SubmitViaWorker(src.endpoint, dst.endpoint,
                  [link = *link, bytes, cb = std::move(on_complete)]() mutable {
                    link->StartFlow(bytes, std::move(cb));
                  });
  return Status::Ok();
}

}  // namespace deepserve::distflow
