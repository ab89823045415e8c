#include "hw/hccl.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace deepserve::hw {

Hccl::Hccl(Cluster* cluster) : cluster_(cluster) { DS_CHECK(cluster != nullptr); }

void Hccl::Broadcast(NpuId src, int num_destinations, Bytes bytes, LinkType link_type,
                     std::function<void()> on_complete) {
  DS_CHECK_GE(num_destinations, 0);
  if (num_destinations == 0) {
    cluster_->simulator()->ScheduleAfter(0, std::move(on_complete));
    return;
  }
  SharedLink* src_link = cluster_->LinkOfType(cluster_->machine_of(src), link_type);
  DS_CHECK(src_link != nullptr);
  int rounds = static_cast<int>(std::ceil(std::log2(static_cast<double>(num_destinations) + 1)));
  // Rounds 2..n run on other machines' links; charge their isolated time
  // after the first (contended) hop completes.
  DurationNs tail = static_cast<DurationNs>(rounds - 1) * src_link->IsolatedDuration(bytes);
  auto* simulator = cluster_->simulator();
  src_link->StartFlow(bytes, [simulator, tail, cb = std::move(on_complete)]() mutable {
    simulator->ScheduleAfter(tail, std::move(cb));
  });
}

}  // namespace deepserve::hw
