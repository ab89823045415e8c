// Pluggable scheduling policies for the FlowServe engine (§4.4, §5).
//
// The engine's step loop (BuildStep) owns the mechanism — KV accounting,
// chunk bookkeeping, micro-batch rotation — and delegates the four *policy*
// decisions to a SchedPolicy:
//
//   1. admission ordering   which ready sequence to admit next,
//   2. chunk budgeting      how many prefill tokens that sequence may add to
//                           the step being built,
//   3. victim selection     which running sequence to preempt when KV blocks
//                           run out,
//   4. shed verdicts        whether a sequence should be terminated early
//                           (deadline expired / provably unmeetable).
//
// Policies are pure decision procedures: they never mutate sequences or
// engine state, which is what makes the fcfs policy provably bit-identical
// to the pre-refactor engine (pinned by the golden-stats parity test).
#ifndef DEEPSERVE_FLOWSERVE_SCHED_SCHED_POLICY_H_
#define DEEPSERVE_FLOWSERVE_SCHED_SCHED_POLICY_H_

#include <deque>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "flowserve/sched/sched_config.h"
#include "flowserve/sequence.h"

namespace deepserve::flowserve::sched {

// Why the engine is looking for a preemption victim.
enum class PreemptReason {
  kDecodeGrowth,  // a running sequence needs KV for its next token (or the
                  // anti-stall path needs room for the oldest prefill)
  kAdmission,     // a policy with AdmissionMayPreempt() wants KV for a newly
                  // admitted sequence
};

// Predicted duration of the step under construction if the candidate
// sequence contributes `chunk` more prefill tokens. Built by the engine so
// it reflects the exact cost model + feature-level arithmetic RunStep uses
// (PIC discounts, attended tokens, CPU overheads, async overlap).
//
// A non-owning reference to a callable (a function pointer plus the
// callable's address): it is valid only while the callable it was built
// from lives, which for BoundChunk's argument is the call. Building one
// never allocates, unlike a std::function over the engine's capture.
class ChunkCostFn {
 public:
  template <typename F, typename = std::enable_if_t<!std::is_same_v<F, ChunkCostFn> &&
                                                    std::is_invocable_r_v<DurationNs, const F&,
                                                                          int64_t>>>
  ChunkCostFn(const F& fn)  // NOLINT(google-explicit-constructor): callable reference
      : fn_(&fn), call_([](const void* target, int64_t chunk) -> DurationNs {
          return (*static_cast<const F*>(target))(chunk);
        }) {}

  DurationNs operator()(int64_t chunk) const { return call_(fn_, chunk); }

 private:
  const void* fn_;
  DurationNs (*call_)(const void*, int64_t);
};

class SchedPolicy {
 public:
  virtual ~SchedPolicy() = default;

  virtual std::string_view name() const = 0;

  // Picks the next sequence to admit from the ready queue (non-empty).
  // Returns an iterator into `ready`; the engine erases it on admission.
  virtual std::deque<Sequence*>::iterator NextAdmission(std::deque<Sequence*>& ready,
                                                        TimeNs now) const = 0;

  // Bounds a proposed prefill chunk for `seq`. `proposed` is the engine's
  // mechanical budget (remaining prefill, chunk budget, step token budget);
  // the policy may only shrink it. Returning 0 skips this sequence's prefill
  // for the step. `cost` is only consulted for values in (0, proposed].
  virtual int64_t BoundChunk(const Sequence& seq, int64_t proposed, bool step_has_decode,
                             const ChunkCostFn& cost) const = 0;

  // Picks a preemption victim from `candidates` (already filtered by the
  // engine to preemptible states, excluding in-plan sequences and the
  // beneficiary `keep`; ordered decoding-first then prefilling, each in list
  // order). Returns nullptr to decline — the engine then gives up on `keep`'s
  // allocation rather than preempting.
  virtual Sequence* PickVictim(const std::vector<Sequence*>& candidates, const Sequence& keep,
                               PreemptReason reason) const = 0;

  // Whether admitting a new sequence may preempt running work to obtain KV
  // blocks. False for fcfs/slo (admission never steals from running work,
  // which keeps admission livelock-free); true for priority-preempt.
  virtual bool AdmissionMayPreempt(const Sequence& /*seq*/) const { return false; }

  // When false the engine skips every shed sweep (zero overhead, and zero
  // behavioural drift for fcfs).
  virtual bool WantsShedChecks() const { return false; }

  // Should `seq` be terminated early? `min_remaining` is an engine-computed
  // lower bound on the sequence's remaining service time (best-case prefill
  // + per-token decode floor). Return a non-OK status (typically
  // DEADLINE_EXCEEDED) to shed; the engine then fires on_error exactly once.
  [[nodiscard]] virtual Status ShedVerdict(const Sequence& /*seq*/, TimeNs /*now*/,
                             DurationNs /*min_remaining*/) const {
    return Status::Ok();
  }
};

// Builds the policy named by `config.policy` ("fcfs", "slo",
// "priority-preempt"). INVALID_ARGUMENT for unknown names.
[[nodiscard]] Result<std::unique_ptr<SchedPolicy>> MakeSchedPolicy(const SchedConfig& config);

}  // namespace deepserve::flowserve::sched

#endif  // DEEPSERVE_FLOWSERVE_SCHED_SCHED_POLICY_H_
