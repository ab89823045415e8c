#include "flowserve/sched/slo_policy.h"

#include <cstdint>
#include <string>
#include "common/time_units.h"

namespace deepserve::flowserve::sched {

namespace {

// Deadlines are optional (0 = none); treat "none" as infinitely far so
// deadline-carrying requests always sort ahead of best-effort ones.
inline TimeNs EffectiveDeadline(const Sequence& seq) {
  return seq.deadline > 0 ? seq.deadline : INT64_MAX;
}

}  // namespace

SloPolicy::SloPolicy(const SchedConfig& config)
    : tbt_budget_ns_(config.tbt_budget_ms > 0 ? MsToNs(config.tbt_budget_ms) : 0) {}

std::deque<Sequence*>::iterator SloPolicy::NextAdmission(std::deque<Sequence*>& ready,
                                                         TimeNs /*now*/) const {
  auto best = ready.begin();
  for (auto it = ready.begin(); it != ready.end(); ++it) {
    TimeNs it_dl = EffectiveDeadline(**it);
    TimeNs best_dl = EffectiveDeadline(**best);
    if (it_dl < best_dl ||
        (it_dl == best_dl &&
         ((*it)->priority < (*best)->priority ||
          ((*it)->priority == (*best)->priority &&
           (*it)->enqueue_time < (*best)->enqueue_time)))) {
      best = it;
    }
  }
  return best;
}

int64_t SloPolicy::BoundChunk(const Sequence& /*seq*/, int64_t proposed, bool step_has_decode,
                              const ChunkCostFn& cost) const {
  if (!step_has_decode || tbt_budget_ns_ <= 0 || proposed <= 0) {
    return proposed;  // TTFT is not the bounded quantity; only TBT is.
  }
  if (cost(proposed) <= tbt_budget_ns_) {
    return proposed;
  }
  // Binary search the largest chunk that keeps the predicted iteration under
  // budget. Iteration cost is monotone in chunk size (more tokens = more
  // FLOPs), so the invariant "lo fits (or is 0), hi violates" holds.
  int64_t lo = 0;
  int64_t hi = proposed;
  while (hi - lo > 1) {
    int64_t mid = lo + (hi - lo) / 2;
    if (cost(mid) <= tbt_budget_ns_) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Sequence* SloPolicy::PickVictim(const std::vector<Sequence*>& candidates,
                                const Sequence& /*keep*/, PreemptReason /*reason*/) const {
  Sequence* victim = nullptr;
  for (Sequence* candidate : candidates) {
    if (victim == nullptr) {
      victim = candidate;
      continue;
    }
    TimeNs cand_dl = EffectiveDeadline(*candidate);
    TimeNs vict_dl = EffectiveDeadline(*victim);
    if (cand_dl > vict_dl ||
        (cand_dl == vict_dl &&
         (candidate->priority > victim->priority ||
          (candidate->priority == victim->priority &&
           candidate->enqueue_time > victim->enqueue_time)))) {
      victim = candidate;
    }
  }
  return victim;
}

Status SloPolicy::ShedVerdict(const Sequence& seq, TimeNs now, DurationNs min_remaining) const {
  if (seq.deadline <= 0) {
    return Status::Ok();
  }
  if (now > seq.deadline) {
    return DeadlineExceededError("request " + std::to_string(seq.request_id) +
                                 " deadline expired while " +
                                 std::string(SeqStateToString(seq.state)));
  }
  if (now + min_remaining > seq.deadline) {
    return DeadlineExceededError("request " + std::to_string(seq.request_id) +
                                 " provably unmeetable: needs >= " +
                                 std::to_string(NsToMs(min_remaining)) +
                                 " ms, deadline in " +
                                 std::to_string(NsToMs(seq.deadline - now)) + " ms");
  }
  return Status::Ok();
}

}  // namespace deepserve::flowserve::sched
