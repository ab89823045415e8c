// Configuration for the pluggable engine scheduling layer (sched/).
#ifndef DEEPSERVE_FLOWSERVE_SCHED_SCHED_CONFIG_H_
#define DEEPSERVE_FLOWSERVE_SCHED_SCHED_CONFIG_H_

#include <string>

namespace deepserve::flowserve::sched {

// Selects and parameterizes the engine's scheduling policy. Policies own the
// four decisions BuildStep delegates: admission ordering, prefill chunk
// budgeting, preemption-victim selection, and shed verdicts.
//
//   "fcfs"             service-class priority + FCFS admission, newest-first
//                      preemption, no shedding. The historical engine
//                      behaviour, bit-identical (pinned by the golden-stats
//                      parity test).
//   "slo"              earliest-deadline-first admission, prefill chunks
//                      bounded so decode-bearing iterations stay under
//                      tbt_budget_ms, and requests whose deadline has expired
//                      or is provably unmeetable are shed through on_error
//                      with DEADLINE_EXCEEDED.
//   "priority-preempt" strict service-class scheduling: admission may preempt
//                      strictly lower classes to obtain KV blocks.
struct SchedConfig {
  std::string policy = "fcfs";

  // Inter-token (TBT) budget: hard bound on the duration of any iteration
  // that carries decode work. Enforced by "slo" via chunk bounding; merely
  // *counted* (EngineStats::tbt_violations) for every policy when > 0.
  double tbt_budget_ms = 0.0;

  // Time-to-first-token budget, measured from request arrival (submit time
  // when no arrival is stamped). Counted only (EngineStats::ttft_violations)
  // for every policy when > 0 — it feeds the "slo" autoscaler, not shedding.
  double ttft_budget_ms = 0.0;
};

}  // namespace deepserve::flowserve::sched

#endif  // DEEPSERVE_FLOWSERVE_SCHED_SCHED_CONFIG_H_
