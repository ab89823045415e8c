// SLO route policy: weighted least-loaded dispatch plus overload shedding by
// service class. Under a flash crowd the batch tier is turned away first,
// then normal, so interactive TTFT survives while capacity catches up
// (DeepServe §3's frontend protection duty).
#ifndef DEEPSERVE_SERVING_ROUTE_SLO_POLICY_H_
#define DEEPSERVE_SERVING_ROUTE_SLO_POLICY_H_

#include "serving/route_policy.h"

namespace deepserve::serving {

class SloRoutePolicy : public RoutePolicy {
 public:
  std::string_view name() const override { return "slo"; }
  RouteDecision Pick(const RouteContext& ctx) override;

  int64_t sheds() const { return sheds_; }

 private:
  int64_t sheds_ = 0;
};

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_ROUTE_SLO_POLICY_H_
