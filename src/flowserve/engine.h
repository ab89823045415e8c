// The FlowServe serving engine (§4).
//
// One Engine is the serving core of one model-serving TE. It follows the
// paper's three principles:
//   * microkernel-inspired modularity — tokenizer, scheduler, RTC (caching +
//     memory), and DistFlow (networking, injected) are separate components
//     wired through narrow interfaces;
//   * NPU-centric execution — the scheduler's only job is to keep the NPU
//     busy: asynchronous KV prefetch keeps requests off the critical path,
//     and asynchronous execution overlaps CPU scheduling of batch N+1 with
//     NPU execution of batch N;
//   * SPMD master-executor — this class is the master; the cost model
//     stands in for the per-NPU model runners that carry out its decisions
//     in lockstep. HBM occupancy is the RTC pool's NPU-tier block count.
//
// Time: everything runs on the injected sim::Simulator. A "step" is one
// scheduler iteration (continuous batching); its NPU duration comes from the
// analytical cost model and its CPU duration from the engine feature level
// (v1/v2/v3), which is how Fig. 3's versions are reproduced. A decode-only
// batch that nothing can change before its next KV block boundary or finish
// runs those steps as one decode run: one event at the run's end, with each
// step's effects applied at that end, or earlier when an outside call
// settles the run (see RunStep). Every simulated time and count is the same
// as stepping one event at a time.
#ifndef DEEPSERVE_FLOWSERVE_ENGINE_H_
#define DEEPSERVE_FLOWSERVE_ENGINE_H_

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "flowserve/engine_config.h"
#include "flowserve/sched/sched_policy.h"
#include "flowserve/sequence.h"
#include "model/cost_model.h"
#include "model/tokenizer.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"
#include "workload/request.h"

namespace deepserve::flowserve {

struct EngineStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t steps = 0;
  int64_t prefill_tokens_processed = 0;
  // Attention-window tokens charged to prefill chunks (the quadratic FLOPs
  // driver); pinned by the PIC step-shape unit tests.
  int64_t prefill_attended_tokens = 0;
  int64_t decode_tokens_generated = 0;
  int64_t reused_tokens = 0;
  int64_t pic_reused_tokens = 0;
  // Prompts this engine hashed into a block-key chain itself because the
  // request came without one (see Submit).
  int64_t prompt_hashes = 0;
  int64_t populates_started = 0;
  int64_t populates_rejected = 0;  // cost model said recompute instead
  int64_t preemptions = 0;
  int64_t cancelled = 0;
  int64_t aborted = 0;
  // KV context tokens held by sequences dropped via Abort(): the work a TE
  // crash destroys. Re-dispatched requests re-enter as fresh prefills (RTC
  // prefix reuse on the new TE softens the recompute).
  int64_t aborted_kv_tokens = 0;
  // Longest single iteration that carried decode work: the worst inter-token
  // stall any decoding request saw (the quantity SLA-aware chunking bounds).
  DurationNs max_decode_step = 0;
  DurationNs npu_busy = 0;
  DurationNs cpu_sched_total = 0;
  DurationNs cpu_stall = 0;  // iteration time lost waiting on the CPU
  // Scheduling-policy outcomes. `shed` counts sequences the policy terminated
  // early via on_error (deadline expired / provably unmeetable);
  // `deadline_misses` counts both sheds past their deadline and completions
  // that landed late; `tbt_violations` counts decode-bearing iterations that
  // exceeded sched.tbt_budget_ms (counted for every policy when a budget is
  // configured, enforced only by "slo").
  int64_t shed = 0;
  int64_t deadline_misses = 0;
  int64_t tbt_violations = 0;
  // First tokens emitted later than sched.ttft_budget_ms after request
  // arrival (counted when the budget is > 0; never counted on decode-only
  // engines, whose first token was produced by the prefill TE). Feeds the
  // "slo" autoscaler policy.
  int64_t ttft_violations = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

// KV blocks one DP group's NPU tier holds under `config`: the override when
// set, else what HBM holds after the weights at the utilization target.
// INVALID_ARGUMENT, naming the model and the parallelism, when that is not
// one block, i.e. the model does not fit on its NPUs, when an override's
// per-NPU share of its blocks exceeds one NPU's HBM, and for a tp, pp or dp
// below 1. The Engine sizes its cache with this; a launcher calls it to
// refuse such a config up front.
[[nodiscard]] Result<int64_t> KvBlockCapacity(const EngineConfig& config);

class Engine {
 public:
  // (sequence, kv_bytes_to_move, on_delivered) — installed on prefill-only
  // engines by the TE layer; routes through DistFlow.
  using KvSendFn = std::function<void(const Sequence&, Bytes, std::function<void()>)>;

  Engine(sim::Simulator* sim, EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Optional wiring ----------------------------------------------------------
  // Timed transfers for populate/swap (defaults to instantaneous).
  void SetRtcTransferFn(rtc::TransferFn fn);
  void SetKvSendFn(KvSendFn fn) { kv_send_ = std::move(fn); }
  // Fault modeling: scales every iteration's wall-clock duration (slow-node
  // straggler injection). 1.0 = healthy; must be > 0. Steps already started
  // keep their duration.
  void SetStepTimeMultiplier(double multiplier);
  double step_time_multiplier() const { return step_time_multiplier_; }

  // Request paths -------------------------------------------------------------
  // Both paths share spec.prompt's storage and take `keys`, the caller's
  // block-key chain of it (the JE's), for the RTC match and cache commit. A
  // request without one (a direct Submit) has the engine hash the prompt
  // itself, once, when it first needs the chain.
  //
  // Full path: tokenizer -> sched-enqueue (RTC match / populate) -> batch.
  // `handler.on_error` fires (exactly once, instead of on_complete) when the
  // scheduling policy sheds the sequence — e.g. DEADLINE_EXCEEDED under "slo"
  // — or, as INVALID_ARGUMENT from a 0-delay event and with nothing
  // admitted, when the request's context can never fit this engine's KV.
  void Submit(const workload::RequestSpec& spec, ResponseHandler handler,
              rtc::KeyChain keys = {});
  // Decode-only TEs: admit a request whose prefill (and first token) happened
  // on a prefill TE; KV for the whole prompt is allocated here as arrived.
  // `handler.on_first_token` never fires here: a resumed prefill emits no
  // first token. Fails, with the handler unused, when this engine cannot hold
  // the context.
  [[nodiscard]] Status SubmitPrefilled(const workload::RequestSpec& spec,
                                       ResponseHandler handler, rtc::KeyChain keys = {});

  // Lifecycle -------------------------------------------------------------------
  // Cancels one in-flight request: its KV pins are released (nothing is
  // preserved) and no further callbacks fire for it. NOT_FOUND if the request
  // is unknown or already finished.
  [[nodiscard]] Status Cancel(workload::RequestId request_id);
  // Drops every in-flight request without callbacks (TE failure path).
  // Returns how many sequences were aborted.
  size_t Abort();

  // Introspection --------------------------------------------------------------
  // Sequences accepted and not yet terminated (waiting + running): the
  // engine's one load measure, O(1), behind §5's load-aware dispatch.
  int64_t live_sequences() const { return static_cast<int64_t>(sequences_.size()); }
  // Settles every decode run first, so the counts are those of Now().
  const EngineStats& stats() {
    SettleRuns();
    return stats_;
  }
  const EngineConfig& config() const { return config_; }
  const sched::SchedPolicy& policy() const { return *policy_; }
  const model::CostModel& cost_model() const { return cost_; }
  model::Tokenizer& tokenizer() { return tokenizer_; }
  rtc::RtcMaster& rtc(int dp_group = 0);
  int64_t kv_block_capacity() const { return kv_block_capacity_; }
  // True while any DP group has a step on the NPU (NPU-fork contention).
  bool busy() const;

  // Drains nothing, simply reports whether all work completed.
  bool idle() const;

  // Drain mode (graceful scale-down): stop admitting new requests while
  // in-flight work runs to completion. Submit() on a draining engine is a
  // programming error (the TE/JE layers stop routing first); SubmitPrefilled
  // stays allowed so already-committed PD hand-offs can land.
  void BeginDrain() { draining_ = true; }
  bool draining() const { return draining_; }
  // Invokes cb (via a 0-delay event, preserving FIFO causality) once no live
  // sequences remain — immediately if already idle. One-shot: re-arm to keep
  // watching. Fires on *any* path that empties the engine, including Abort().
  void NotifyWhenIdle(std::function<void()> cb);

 private:
  // One step's composition, captured at schedule time and applied at
  // completion time. Sequences are held by generation-checked reference: one
  // may be cancelled (and its slot reused) while the step runs.
  struct StepPlan {
    model::StepShape shape;
    std::vector<std::pair<SeqRef, int64_t>> prefill_chunks;  // seq, tokens
    std::vector<SeqRef> decode_seqs;
    DurationNs npu_time = 0;
    DurationNs cpu_time = 0;
    DurationNs pipeline_drain = 0;  // (pp-1) * stage time, latency adder

    // Empties the plan; the vectors keep their capacity.
    void clear() {
      shape = model::StepShape{};
      prefill_chunks.clear();
      decode_seqs.clear();
      npu_time = 0;
      cpu_time = 0;
      pipeline_drain = 0;
    }
  };

  // One step of a decode run: when it ends and what it costs.
  struct RunStepTimes {
    TimeNs end = 0;
    DurationNs npu_time = 0;
    DurationNs cpu_time = 0;
  };

  struct DpGroup {
    int index = 0;
    std::unique_ptr<rtc::RtcMaster> rtc;
    std::deque<Sequence*> ready;
    std::vector<Sequence*> prefilling;
    std::vector<Sequence*> decoding;
    // Live sequences assigned to this group, tokenizing ones included.
    int64_t assigned = 0;
    // At most one step per group is in flight: `loop_running` gates KickLoop,
    // and CompleteStep re-enters RunStep only as its last statement. So the
    // group owns that step's plan, which RunStep refills in place.
    bool loop_running = false;
    StepPlan plan;
    // The steps of the run in flight: one, or a decode run of k > 1 (see
    // RunStep). Steps before index `run_done` have completed; `plan` holds
    // the shape of step run_done + 1, whose accounting is charged. Only the
    // last step's completion is an event (`step_event`); each earlier one is
    // applied at that event or when SettleRun finds it past.
    std::vector<RunStepTimes> run;
    size_t run_done = 0;
    TimeNs run_start = 0;
    sim::EventId step_event = sim::kInvalidEventId;
    // BuildStep's snapshot of `decoding`, reused across steps.
    std::vector<Sequence*> decode_scratch;
    // SweepSheds' candidate list, reused across steps.
    std::vector<SeqRef> shed_scratch;
    int current_mb = 0;     // PP micro-batch rotation
    int next_admit_mb = 0;  // round-robin micro-batch assignment
  };

  // Submit/enqueue paths (engine.cc).
  // The fields every submitted sequence takes from its request.
  Sequence* AddSequence(const workload::RequestSpec& spec, int dp_group, rtc::KeyChain keys);
  // seq->keys, hashed here first (once) when the request brought no chain.
  const rtc::KeyChain& PromptKeys(Sequence* seq);
  void SchedEnqueue(Sequence* seq);
  void FinishEnqueue(Sequence* seq);
  // Step loop (engine_step.cc).
  void KickLoop(DpGroup& group);
  void RunStep(DpGroup& group);
  bool BuildStep(DpGroup& group, StepPlan* plan);
  // Appends steps 2..k of a decode run to group.run when the step just built
  // may start one.
  void PlanDecodeRun(DpGroup& group);
  // Schedules the completion of group.run's last step, ordered as if it had
  // been scheduled when that step started.
  void ScheduleStepEnd(DpGroup& group);
  void CompleteStep(DpGroup& group);
  // Charges the accounting of group.plan's step, which runs from `begin` to
  // `end`: steps, NPU/CPU time, TBT, and its "step" trace slice.
  void ChargeStep(const DpGroup& group, TimeNs begin, TimeNs end);
  // Applies one finished step's effects on its sequences and counters.
  void ApplyStepResult(DpGroup& group);
  // Completes run steps until step `in_flight` + 1 is the one in flight.
  void AdvanceRun(DpGroup& group, size_t in_flight);
  // Brings a decode run to Now(): applies the steps that have ended and makes
  // the step in flight the group's last, so its state is what stepping one
  // event at a time would show. Called before anything reads or changes the
  // group's step state from outside the step loop.
  void SettleRun(DpGroup& group);
  void SettleRuns();
  // Shared iteration-cost arithmetic: BuildStep/RunStep and the policy's
  // ChunkCostFn all go through these, so a policy's predicted step duration is
  // exactly what RunStep will charge.
  DurationNs NpuTime(const model::StepShape& shape) const;
  DurationNs CpuTime(const model::StepShape& shape, int64_t prefill_chunks) const;
  DurationNs IterationTime(DurationNs npu, DurationNs cpu) const;
  // PIC discount: compute-volume tokens actually charged for a `chunk`-token
  // prefill chunk of `seq`.
  int64_t EffectiveChunkTokens(const Sequence& seq, int64_t chunk) const;
  // Lower bound on `seq`'s remaining service time (best-case single-chunk
  // prefill + per-token single-sequence decode floor); feeds shed verdicts.
  DurationNs MinRemainingServiceTime(const Sequence& seq) const;
  // Applies the policy's shed verdicts to every queued/running sequence of
  // the group. No-op unless the policy wants shed checks.
  void SweepSheds(DpGroup& group);
  // Completion paths (engine_finish.cc).
  void FinishPrefill(DpGroup& group, Sequence* seq, DurationNs extra_latency);
  void FinishSequence(DpGroup& group, Sequence* seq, DurationNs extra_latency);
  // Terminates `seq` early with `status` via on_error (exactly once), then
  // releases its KV without preservation.
  void ShedSequence(DpGroup& group, Sequence* seq, const Status& status);
  // Ensures `seq` has KV blocks covering `tokens`. allow_preempt lets the
  // allocation steal from running work; which victim (if any) is the
  // policy's call, tagged with why (`reason`).
  bool EnsureBlocks(DpGroup& group, Sequence* seq, int64_t tokens, bool allow_preempt,
                    StepPlan* plan, sched::PreemptReason reason);
  bool PreemptVictim(DpGroup& group, Sequence* keep, StepPlan* plan,
                     sched::PreemptReason reason);
  void ReleaseSequence(DpGroup& group, Sequence* seq, bool preserve);
  // Counts a TTFT violation when sched.ttft_budget_ms > 0 and seq's first
  // token landed past budget after arrival. Call where first_token_time is
  // assigned.
  void CountFirstToken(const Sequence& seq);
  DpGroup& GroupFor(const Sequence& seq) { return *groups_[static_cast<size_t>(seq.dp_group)]; }
  int PickDpGroup() const;
  void DetachFromGroup(DpGroup& group, Sequence* seq);
  // Lazily binds registry counters; no-op until a registry is attached.
  void EnsureMetrics();

  sim::Simulator* sim_;
  EngineConfig config_;
  model::CostModel cost_;
  model::Tokenizer tokenizer_;
  std::unique_ptr<sched::SchedPolicy> policy_;
  int64_t kv_block_capacity_ = 0;

  std::vector<std::unique_ptr<DpGroup>> groups_;
  // Owns all live sequences. Deferred callbacks (tokenizer, populate,
  // KV-send, step completion) may outlive a cancelled sequence; they hold a
  // SeqRef and re-validate it.
  SequenceSlab sequences_;
  KvSendFn kv_send_;
  double step_time_multiplier_ = 1.0;
  bool draining_ = false;
  std::vector<std::function<void()>> idle_waiters_;

  EngineStats stats_;
  int busy_groups_ = 0;

  // One Chrome "process" per engine, one lane per DP group.
  obs::LazyTrack track_;
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_preemptions_ = nullptr;
  obs::Counter* m_prefill_tokens_ = nullptr;
  obs::Counter* m_decode_tokens_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_deadline_misses_ = nullptr;
  obs::Counter* m_tbt_violations_ = nullptr;
  obs::Counter* m_ttft_violations_ = nullptr;
  OnlineStats* m_step_ms_ = nullptr;
};

}  // namespace deepserve::flowserve

#endif  // DEEPSERVE_FLOWSERVE_ENGINE_H_
