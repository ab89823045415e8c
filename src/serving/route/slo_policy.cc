#include "serving/route/slo_policy.h"

#include "common/logging.h"

namespace deepserve::serving {

namespace {

// Fleet pressure = outstanding requests / ready serving slots. A class is
// shed while pressure >= its depth: batch (priority >= 2) first, then normal
// (priority >= 1). Interactive (0) is never shed.
constexpr double kShedBatchDepth = 4.0;
constexpr double kShedNormalDepth = 8.0;

}  // namespace

RouteDecision SloRoutePolicy::Pick(const RouteContext& ctx) {
  DS_CHECK(!ctx.candidates.empty());
  // Fleet pressure counts every replica's outstanding work (ejected ones
  // included — their load is still real) against the ready slots.
  double pressure = static_cast<double>(ctx.total_outstanding) /
                    static_cast<double>(std::max(ctx.total_weight, 1));
  double depth = ctx.priority >= 2 ? kShedBatchDepth
               : ctx.priority >= 1 ? kShedNormalDepth
                                   : 0.0;  // interactive is never shed
  if (depth > 0.0 && pressure >= depth) {
    ++sheds_;
    return RouteDecision{true, 0};
  }
  return RouteDecision{false, PickLeastLoaded(ctx.candidates)};
}

}  // namespace deepserve::serving
