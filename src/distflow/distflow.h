// Distributed Flow (DistFlow) — FlowServe's tensor-transfer module (§4.4).
//
// DistFlow moves tensors across tiered storage within one TE and between
// distributed TEs peer-to-peer (vs. the collective traffic of TP/PP). It
// exposes:
//   * control plane — RegisterEndpoint / LinkCluster, which establish the
//     connection mesh before any data moves;
//   * data plane — Transfer(srcInfo, dstInfo): caller supplies raw memory
//     regions (DistFlow has no block abstraction, per the paper), and a
//     completion callback fires when the last byte lands.
// Backends: HCCL P2P for the regular Ascend cluster, RoCE for cross-domain
// traffic, and memcpy-style moves for SuperPod-like shared memory; tier hops
// inside a machine ride PCIe/SSD links. Multi-hop routes (e.g. SSD -> NPU)
// are chained flows.
//
// The "scalable threading model that avoids synchronization bottlenecks" is
// modelled structurally: operations are sharded across worker queues by
// endpoint pair, each worker serializing a small per-op submission cost, so
// configurations with too few workers exhibit the head-of-line blocking the
// real design avoids.
#ifndef DEEPSERVE_DISTFLOW_DISTFLOW_H_
#define DEEPSERVE_DISTFLOW_DISTFLOW_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/time_units.h"
#include "common/types.h"
#include "hw/cluster.h"
#include "rtc/block_pool.h"
#include "sim/simulator.h"

namespace deepserve::distflow {

using EndpointId = int32_t;
inline constexpr EndpointId kInvalidEndpoint = -1;

// A raw memory region on some endpoint's tier. `address` is opaque — the
// simulation transfers byte counts, but the API keeps the paper's
// buffer-address semantics so callers look like real DistFlow users.
struct MemRegion {
  EndpointId endpoint = kInvalidEndpoint;
  rtc::Tier tier = rtc::Tier::kDram;
  uint64_t address = 0;
  Bytes length = 0;
};

struct DistFlowConfig {
  // Worker shards submitting transfer ops. The real system sizes this to
  // avoid synchronization bottlenecks; 1 reproduces a serialized design.
  int num_workers = 8;
  // CPU-side submission cost per op, serialized within a worker shard.
  DurationNs per_op_overhead = UsToNs(15);
  // Force all inter-NPU traffic onto forced_backend (false = auto-select by
  // topology). Only tests pin it; the NPU-fork benchmarks choose a fork's
  // link per scale-up through ScaleRequest::fork_link instead.
  bool force_backend = false;
  hw::LinkType forced_backend = hw::LinkType::kHccs;
};

struct DistFlowStats {
  int64_t transfers = 0;
  Bytes bytes_moved = 0;
  int64_t multi_hop_transfers = 0;
  int64_t rejected = 0;
};

class TransferEngine {
 public:
  TransferEngine(sim::Simulator* sim, hw::Cluster* cluster, DistFlowConfig config);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  // ---- control plane --------------------------------------------------------
  // Registers an endpoint backed by the given NPU (its machine provides the
  // DRAM/SSD tiers for that endpoint).
  [[nodiscard]] Status RegisterEndpoint(EndpointId id, hw::NpuId npu);
  bool HasEndpoint(EndpointId id) const { return endpoints_.count(id) > 0; }

  // Establishes connections among all pairs in `group` (async; completion
  // fires after the setup latency). Transfers between unlinked distinct
  // endpoints are rejected.
  [[nodiscard]] Status LinkCluster(const std::vector<EndpointId>& group, std::function<void()> on_ready);
  bool Linked(EndpointId a, EndpointId b) const;

  // ---- data plane -----------------------------------------------------------
  // Moves min(src.length, dst.length) bytes; `on_complete` fires at landing.
  [[nodiscard]] Status Transfer(const MemRegion& src, const MemRegion& dst, std::function<void()> on_complete);

  // Estimated isolated duration of such a transfer (scheduler cost model).
  [[nodiscard]] Result<DurationNs> EstimateTransfer(const MemRegion& src, const MemRegion& dst) const;

  const DistFlowStats& stats() const { return stats_; }
  const DistFlowConfig& config() const { return config_; }

 private:
  struct Route {
    std::vector<hw::SharedLink*> hops;  // traversed in order
  };

  [[nodiscard]] Result<Route> Resolve(const MemRegion& src, const MemRegion& dst) const;
  void SubmitViaWorker(EndpointId src, EndpointId dst, std::function<void()> start);
  void RunHops(std::vector<hw::SharedLink*> hops, size_t index, Bytes bytes,
               std::function<void()> on_complete);

  sim::Simulator* sim_;
  hw::Cluster* cluster_;
  DistFlowConfig config_;
  std::map<EndpointId, hw::NpuId> endpoints_;
  std::set<std::pair<EndpointId, EndpointId>> links_;
  std::vector<TimeNs> worker_busy_until_;
  DistFlowStats stats_;
};

}  // namespace deepserve::distflow

#endif  // DEEPSERVE_DISTFLOW_DISTFLOW_H_
