// SLO-aware policy (§4.4, §5): earliest-deadline-first admission, prefill
// chunks bounded so decode-bearing iterations stay under the TBT budget, and
// expired / provably-unmeetable requests shed with DEADLINE_EXCEEDED.
#ifndef DEEPSERVE_FLOWSERVE_SCHED_SLO_POLICY_H_
#define DEEPSERVE_FLOWSERVE_SCHED_SLO_POLICY_H_

#include "flowserve/sched/sched_policy.h"

namespace deepserve::flowserve::sched {

class SloPolicy : public SchedPolicy {
 public:
  explicit SloPolicy(const SchedConfig& config);

  std::string_view name() const override { return "slo"; }

  // EDF: earliest absolute deadline first (no deadline = +inf, i.e. last);
  // ties fall back to the fcfs (priority, enqueue_time) order.
  std::deque<Sequence*>::iterator NextAdmission(std::deque<Sequence*>& ready,
                                                TimeNs now) const override;
  // Largest chunk (<= proposed) whose predicted iteration stays under the TBT
  // budget when the step carries decode work; 0 if even the smallest chunk
  // would break the budget (decode runs alone this step).
  int64_t BoundChunk(const Sequence& seq, int64_t proposed, bool step_has_decode,
                     const ChunkCostFn& cost) const override;
  // Victimize the sequence with the farthest deadline (no deadline = first
  // choice); ties fall back to the fcfs newest-first rule.
  Sequence* PickVictim(const std::vector<Sequence*>& candidates, const Sequence& keep,
                       PreemptReason reason) const override;

  bool WantsShedChecks() const override { return true; }
  [[nodiscard]] Status ShedVerdict(const Sequence& seq, TimeNs now, DurationNs min_remaining) const override;

 private:
  DurationNs tbt_budget_ns_ = 0;  // 0 = no chunk bounding
};

}  // namespace deepserve::flowserve::sched

#endif  // DEEPSERVE_FLOWSERVE_SCHED_SLO_POLICY_H_
