// Facade over the Huawei Collective Communication Library (HCCL).
//
// Exposes the one collective the paper's control plane issues itself:
// broadcast (NPU-fork fans model weights to many TEs at once). Peer-to-peer
// KV and weight moves go through DistFlow, and collectives inside a forward
// pass (TP all-reduce) are folded into the model cost model, since they run
// on dedicated intra-server links and only their latency matters for step
// time.
//
// Broadcast is modelled as a binomial tree: ceil(log2(n+1)) rounds, each
// copying the full payload. The first round runs as a real flow on the source
// machine's fabric link — so it feels contention from concurrent transfers
// and from a busy source NPU (Fig. 10b/c) — while later rounds, which fan out
// from *other* machines' links, are charged their isolated duration.
#ifndef DEEPSERVE_HW_HCCL_H_
#define DEEPSERVE_HW_HCCL_H_

#include <functional>

#include "common/types.h"
#include "hw/cluster.h"

namespace deepserve::hw {

class Hccl {
 public:
  explicit Hccl(Cluster* cluster);

  // Broadcasts `bytes` from src to `num_destinations` peers over `link_type`.
  // on_complete fires when the last destination holds the payload.
  void Broadcast(NpuId src, int num_destinations, Bytes bytes, LinkType link_type,
                 std::function<void()> on_complete);

 private:
  Cluster* cluster_;
};

}  // namespace deepserve::hw

#endif  // DEEPSERVE_HW_HCCL_H_
