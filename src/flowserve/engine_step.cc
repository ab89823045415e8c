// The engine's step loop: continuous-batching BuildStep/RunStep/CompleteStep,
// KV block acquisition and preemption, and the shared iteration-cost
// arithmetic. Policy decisions (admission order, chunk bounds, victim choice,
// shed verdicts) are delegated to the sched::SchedPolicy.
#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"
#include "flowserve/engine.h"

namespace deepserve::flowserve {

namespace {

// PIC (§4.3 / EPIC): the share of a reused chunk's compute still paid to
// recompute its boundary tokens.
constexpr double kPicRecomputeFraction = 0.15;

}  // namespace

void Engine::KickLoop(DpGroup& group) {
  if (group.loop_running) {
    SettleRun(group);  // the new work joins at the step in flight's end
  } else {
    RunStep(group);
  }
}

DurationNs Engine::NpuTime(const model::StepShape& shape) const {
  const EngineFeatures& f = config_.features;
  return cost_.StepDuration(shape) + f.npu_step_overhead +
         shape.decode_seqs * f.npu_sampling_per_seq;
}

DurationNs Engine::CpuTime(const model::StepShape& shape, int64_t prefill_chunks) const {
  const EngineFeatures& f = config_.features;
  int64_t batch_seqs = shape.decode_seqs + prefill_chunks;
  return f.sched_overhead_base + f.ipc_overhead + batch_seqs * f.sched_overhead_per_seq +
         shape.decode_seqs * f.sampling_overhead_per_seq;
}

DurationNs Engine::IterationTime(DurationNs npu, DurationNs cpu) const {
  DurationNs iteration = config_.features.async_scheduling ? std::max(npu, cpu) : npu + cpu;
  if (step_time_multiplier_ != 1.0) {
    // Injected slow-node straggler: the whole iteration stretches.
    iteration = std::max<DurationNs>(
        1, static_cast<DurationNs>(static_cast<double>(iteration) * step_time_multiplier_));
  }
  return iteration;
}

int64_t Engine::EffectiveChunkTokens(const Sequence& seq, int64_t chunk) const {
  // PIC discount: tokens covered by position-independent reuse only pay the
  // boundary-recompute fraction of their compute.
  if (seq.pic_tokens > 0 && seq.prefill_target > seq.reused_tokens) {
    double coverage = std::min(1.0, static_cast<double>(seq.pic_tokens) /
                                        static_cast<double>(seq.prefill_target -
                                                            seq.reused_tokens));
    double keep = 1.0 - coverage * (1.0 - kPicRecomputeFraction);
    return std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(chunk) * keep));
  }
  return chunk;
}

DurationNs Engine::MinRemainingServiceTime(const Sequence& seq) const {
  // Best case for the remaining work: the whole remaining prefill runs as one
  // chunk in a step of its own, then each remaining output token costs a
  // single-sequence decode step at the current context length. Both are lower
  // bounds (batching peers and growing context only add time), so a
  // shed-on-unmeetable verdict never fires for a request that could have met
  // its deadline.
  DurationNs total = 0;
  int64_t remaining_decode = seq.decode_target - seq.generated;
  int64_t remaining_prefill = std::max<int64_t>(0, seq.prefill_target - seq.prefilled);
  if (remaining_prefill > 0) {
    model::StepShape shape;
    int64_t effective = EffectiveChunkTokens(seq, remaining_prefill);
    shape.prefill_tokens = effective;
    shape.prefill_attended_tokens = model::AttendedTokens(seq.prefilled, effective);
    total += IterationTime(NpuTime(shape), CpuTime(shape, 1));
    remaining_decode -= 1;  // the prefill step emits the first token
  }
  if (remaining_decode > 0) {
    model::StepShape shape;
    shape.decode_seqs = 1;
    shape.decode_context_tokens = std::max<int64_t>(1, seq.context_len());
    total += remaining_decode * IterationTime(NpuTime(shape), CpuTime(shape, 0));
  }
  return total;
}

void Engine::SweepSheds(DpGroup& group) {
  if (!policy_->WantsShedChecks()) {
    return;
  }
  std::vector<SeqRef>& candidates = group.shed_scratch;
  candidates.clear();
  for (Sequence* seq : group.ready) {
    candidates.emplace_back(seq);
  }
  for (Sequence* seq : group.prefilling) {
    candidates.emplace_back(seq);
  }
  for (Sequence* seq : group.decoding) {
    candidates.emplace_back(seq);
  }
  const TimeNs now = sim_->Now();
  for (SeqRef ref : candidates) {
    if (!ref.Alive()) {
      continue;  // a previous shed's on_error may have cancelled it
    }
    Sequence* seq = ref.seq;
    if (seq->state != SeqState::kQueued && seq->state != SeqState::kPrefilling &&
        seq->state != SeqState::kDecoding) {
      continue;
    }
    Status verdict = policy_->ShedVerdict(*seq, now, MinRemainingServiceTime(*seq));
    if (!verdict.ok()) {
      ShedSequence(group, seq, verdict);
    }
  }
}

bool Engine::EnsureBlocks(DpGroup& group, Sequence* seq, int64_t tokens, bool allow_preempt,
                          StepPlan* plan, sched::PreemptReason reason) {
  int64_t needed = (tokens + rtc::kBlockTokens - 1) / rtc::kBlockTokens -
                   static_cast<int64_t>(seq->blocks.size());
  if (needed <= 0) {
    return true;
  }
  while (true) {
    if (group.rtc->AllocBlocks(needed, &seq->blocks).ok()) {
      return true;
    }
    if (!allow_preempt || !PreemptVictim(group, seq, plan, reason)) {
      return false;
    }
  }
}

bool Engine::PreemptVictim(DpGroup& group, Sequence* keep, StepPlan* plan,
                           sched::PreemptReason reason) {
  // The engine supplies the mechanism (candidate filtering, KV release,
  // re-queue as a recompute-style resume); *which* candidate is preempted is
  // the policy's call. Sequences whose prefill chunk is already in the step
  // being built are off-limits; in-plan *decode* sequences are additionally
  // off-limits for decode growth (the historical rule), but admission-time
  // preemption may evict them — the plan is repaired below — since otherwise
  // a lone decoding batch job could never be displaced by a higher class.
  auto in_plan_prefill = [plan](const Sequence* candidate) {
    if (plan == nullptr) {
      return false;
    }
    for (const auto& [ref, chunk] : plan->prefill_chunks) {
      if (ref.seq == candidate) {
        return true;
      }
    }
    return false;
  };
  auto in_plan_decode = [plan](const Sequence* candidate) {
    if (plan == nullptr) {
      return false;
    }
    for (SeqRef ref : plan->decode_seqs) {
      if (ref.seq == candidate) {
        return true;
      }
    }
    return false;
  };
  std::vector<Sequence*> candidates;
  auto consider = [&](Sequence* candidate) {
    if (candidate == keep || in_plan_prefill(candidate)) {
      return;
    }
    if (in_plan_decode(candidate) && reason != sched::PreemptReason::kAdmission) {
      return;
    }
    if (candidate->state != SeqState::kDecoding && candidate->state != SeqState::kPrefilling) {
      return;
    }
    candidates.push_back(candidate);
  };
  for (Sequence* candidate : group.decoding) {
    consider(candidate);
  }
  for (Sequence* candidate : group.prefilling) {
    consider(candidate);
  }
  Sequence* victim = policy_->PickVictim(candidates, *keep, reason);
  if (victim == nullptr) {
    return false;
  }
  DS_CHECK(std::find(candidates.begin(), candidates.end(), victim) != candidates.end())
      << "policy \"" << policy_->name() << "\" picked a non-candidate victim";
  if (plan != nullptr) {
    // Admission preemption may evict a decode sequence already captured in
    // this step's plan: undo its contribution so the step runs without it.
    auto it = std::find_if(plan->decode_seqs.begin(), plan->decode_seqs.end(),
                           [victim](SeqRef ref) { return ref.seq == victim; });
    if (it != plan->decode_seqs.end()) {
      plan->decode_seqs.erase(it);
      plan->shape.decode_seqs -= 1;
      plan->shape.decode_context_tokens -= victim->context_len();
    }
  }
  ++stats_.preemptions;
  EnsureMetrics();
  if (m_preemptions_ != nullptr) {
    m_preemptions_->Inc();
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), group.index, "preempt",
               {obs::Arg("req", static_cast<int64_t>(victim->request_id)),
                obs::Arg("priority", victim->priority),
                obs::Arg("state", SeqStateToString(victim->state)),
                obs::Arg("prefilled", victim->prefilled)});
  }
  group.rtc->Free(victim->blocks);
  victim->blocks.clear();
  victim->prefilled = 0;
  victim->reused_tokens = 0;
  // Preemption drops all KV, including the position-independent pins: the
  // rebuild recomputes from scratch, so releasing the PIC blocks keeps the
  // pool accounting honest and lets the cache evict them if pressed.
  if (!victim->pic_blocks.empty()) {
    group.rtc->Free(victim->pic_blocks);
    victim->pic_blocks.clear();
  }
  victim->pic_tokens = 0;
  victim->prefill_target = victim->prompt_len() + victim->generated;
  if (victim->state == SeqState::kDecoding) {
    group.decoding.erase(std::find(group.decoding.begin(), group.decoding.end(), victim));
  } else {
    group.prefilling.erase(std::find(group.prefilling.begin(), group.prefilling.end(), victim));
  }
  victim->state = SeqState::kQueued;
  group.ready.push_front(victim);
  return true;
}

bool Engine::BuildStep(DpGroup& group, StepPlan* plan) {
  SweepSheds(group);  // no-op unless the policy sheds (fcfs never does)

  const int pp = config_.parallelism.pp;
  const int mb = group.current_mb;
  group.current_mb = (mb + 1) % std::max(1, pp);

  // ---- decode side: every decoding sequence of this micro-batch -----------
  // Snapshot: preemption below may erase from group.decoding.
  std::vector<Sequence*>& decode_snapshot = group.decode_scratch;
  decode_snapshot.assign(group.decoding.begin(), group.decoding.end());
  for (Sequence* seq : decode_snapshot) {
    if (seq->state != SeqState::kDecoding) {
      continue;  // preempted earlier in this very build
    }
    if (pp > 1 && seq->micro_batch != mb) {
      continue;
    }
    if (static_cast<int64_t>(plan->decode_seqs.size()) >= config_.max_batch_seqs) {
      break;
    }
    if (!EnsureBlocks(group, seq, seq->context_len() + 1, /*allow_preempt=*/true, plan,
                      sched::PreemptReason::kDecodeGrowth)) {
      continue;  // stalls this step; retried next iteration
    }
    plan->decode_seqs.emplace_back(seq);
    plan->shape.decode_seqs += 1;
    plan->shape.decode_context_tokens += seq->context_len();
  }

  // ---- prefill side: continue chunks, then admit new sequences ------------
  int64_t budget = config_.max_tokens_per_step - plan->shape.decode_seqs;
  auto take_chunk = [&](Sequence* seq) {
    if (budget <= 0) {
      return;
    }
    int64_t remaining = seq->prefill_target - seq->prefilled;
    if (remaining <= 0) {
      return;
    }
    int64_t chunk = std::min({remaining, config_.prefill_chunk_tokens, budget});
    // The policy may shrink the chunk (e.g. slo's TBT bound). The cost
    // functor predicts the full iteration duration were this chunk added,
    // using the exact arithmetic RunStep will apply.
    auto chunk_cost = [this, plan, seq](int64_t c) {
      model::StepShape shape = plan->shape;
      int64_t effective = EffectiveChunkTokens(*seq, c);
      shape.prefill_tokens += effective;
      shape.prefill_attended_tokens += model::AttendedTokens(seq->prefilled, effective);
      return IterationTime(
          NpuTime(shape),
          CpuTime(shape, static_cast<int64_t>(plan->prefill_chunks.size()) + 1));
    };
    chunk = policy_->BoundChunk(*seq, chunk, plan->shape.decode_seqs > 0, chunk_cost);
    if (chunk <= 0) {
      return;  // policy skipped this sequence's prefill for the step
    }
    if (!EnsureBlocks(group, seq, seq->prefilled + chunk,
                      policy_->AdmissionMayPreempt(*seq), plan,
                      sched::PreemptReason::kAdmission)) {
      return;
    }
    int64_t effective = EffectiveChunkTokens(*seq, chunk);
    plan->prefill_chunks.emplace_back(SeqRef(seq), chunk);
    plan->shape.prefill_tokens += effective;
    // The PIC discount shrinks the compute volume (effective < chunk), but the
    // tokens that do run still attend over the full physical past context.
    plan->shape.prefill_attended_tokens += model::AttendedTokens(seq->prefilled, effective);
    budget -= chunk;
  };

  for (Sequence* seq : group.prefilling) {
    if (seq->state != SeqState::kPrefilling) {
      continue;
    }
    if (pp > 1 && !config_.pp_spread_chunks && seq->micro_batch != mb) {
      continue;  // sticky chunks: only the home micro-batch advances them
    }
    take_chunk(seq);
    if (budget <= 0) {
      break;
    }
  }
  while (budget > 0 && !group.ready.empty() &&
         static_cast<int64_t>(group.prefilling.size() + group.decoding.size()) <
             config_.max_batch_seqs) {
    auto best = policy_->NextAdmission(group.ready, sim_->Now());
    Sequence* seq = *best;
    group.ready.erase(best);
    seq->state = SeqState::kPrefilling;
    // Fill micro-batches round-robin so the pipeline actually pipelines.
    seq->micro_batch = seq->micro_batch >= 0 ? seq->micro_batch : group.next_admit_mb;
    group.next_admit_mb = (group.next_admit_mb + 1) % std::max(1, pp);
    group.prefilling.push_back(seq);
    if (pp == 1 || config_.pp_spread_chunks || seq->micro_batch == mb) {
      take_chunk(seq);
    }
  }

  if (plan->shape.empty() && !group.prefilling.empty()) {
    // Everyone is stalled on KV blocks with no decode to preempt for us.
    // Guarantee progress: let the oldest prefilling sequence take its chunk
    // with preemption rights (any single request fits capacity by admission
    // check, so this always eventually unblocks). Policy chunk bounds don't
    // apply: the step carries no decode work, so there is no TBT to protect.
    Sequence* oldest = group.prefilling.front();
    for (Sequence* seq : group.prefilling) {
      if (seq->enqueue_time < oldest->enqueue_time) {
        oldest = seq;
      }
    }
    int64_t remaining = oldest->prefill_target - oldest->prefilled;
    int64_t chunk = std::min(remaining, config_.prefill_chunk_tokens);
    if (chunk > 0 &&
        EnsureBlocks(group, oldest, oldest->prefilled + chunk, /*allow_preempt=*/true, plan,
                     sched::PreemptReason::kDecodeGrowth)) {
      plan->prefill_chunks.emplace_back(SeqRef(oldest), chunk);
      plan->shape.prefill_tokens += chunk;
      plan->shape.prefill_attended_tokens += model::AttendedTokens(oldest->prefilled, chunk);
    }
  }
  if (plan->shape.empty()) {
    return false;
  }
  plan->npu_time = NpuTime(plan->shape);
  plan->cpu_time = CpuTime(plan->shape, static_cast<int64_t>(plan->prefill_chunks.size()));
  plan->pipeline_drain = static_cast<DurationNs>(pp - 1) * plan->npu_time;
  return true;
}

// A decode run. A step that carries decode work only, for every decoding
// sequence of the group, with nothing else to admit and no shed checks, is
// followed by the same batch with one more token each until a sequence needs
// a new KV block (EnsureBlocks would allocate, and may preempt) or finishes.
// Those steps' shapes and durations are known now, so the group schedules one
// event at the end of the last and applies the ones before it there, in step
// order, with the accounting each would have charged. Any outside contact
// (admission, SubmitPrefilled, Cancel, Abort, SetStepTimeMultiplier, stats())
// settles the run first. Under PP or a shedding policy every run is one step
// long.
void Engine::PlanDecodeRun(DpGroup& group) {
  const StepPlan& plan = group.plan;
  if (plan.shape.decode_seqs == 0 || !plan.prefill_chunks.empty() || !group.ready.empty() ||
      !group.prefilling.empty() || plan.decode_seqs.size() != group.decoding.size() ||
      config_.parallelism.pp != 1 || policy_->WantsShedChecks()) {
    return;
  }
  // Step j builds at context_len() + j - 1 per sequence: it allocates once
  // that passes the blocks held, and a sequence finishes at its target.
  int64_t steps = INT64_MAX;
  for (SeqRef ref : plan.decode_seqs) {
    const Sequence& seq = *ref.seq;
    const int64_t room =
        static_cast<int64_t>(seq.blocks.size()) * rtc::kBlockTokens - seq.context_len();
    steps = std::min({steps, room, seq.decode_target - seq.generated});
  }
  model::StepShape shape = plan.shape;
  TimeNs end = group.run.back().end;
  for (int64_t j = 2; j <= steps; ++j) {
    shape.decode_context_tokens += shape.decode_seqs;
    const DurationNs npu = NpuTime(shape);
    const DurationNs cpu = CpuTime(shape, 0);
    end += IterationTime(npu, cpu);
    group.run.push_back({end, npu, cpu});
  }
}

void Engine::ScheduleStepEnd(DpGroup& group) {
  const size_t last = group.run.size() - 1;
  const TimeNs started = last == 0 ? group.run_start : group.run[last - 1].end;
  // Scheduled once per run, so the capture must fit SmallFn's inline buffer
  // (tests/alloc_test.cc): the plan stays on the group.
  group.step_event = sim_->ScheduleAt(
      group.run[last].end,
      [this, gi = group.index] {
        --busy_groups_;
        CompleteStep(*groups_[static_cast<size_t>(gi)]);
      },
      started);
}

void Engine::ChargeStep(const DpGroup& group, TimeNs begin, TimeNs end) {
  const StepPlan& plan = group.plan;
  const DurationNs iteration = end - begin;
  ++stats_.steps;
  stats_.prefill_attended_tokens += plan.shape.prefill_attended_tokens;
  stats_.npu_busy += plan.npu_time;
  stats_.cpu_sched_total += plan.cpu_time;
  if (config_.features.async_scheduling) {
    // The scheduler prepares iteration N+1 while the NPU runs N; only CPU
    // time exceeding the NPU time stalls the device.
    stats_.cpu_stall += std::max<DurationNs>(0, plan.cpu_time - plan.npu_time);
  } else {
    stats_.cpu_stall += plan.cpu_time;
  }
  if (plan.shape.decode_seqs > 0) {
    stats_.max_decode_step = std::max(stats_.max_decode_step, iteration);
    if (config_.sched.tbt_budget_ms > 0 &&
        NsToMs(iteration) > config_.sched.tbt_budget_ms) {
      ++stats_.tbt_violations;
      if (m_tbt_violations_ != nullptr) {
        m_tbt_violations_->Inc();
      }
    }
  }
  if (m_steps_ != nullptr) {
    m_steps_->Inc();
    m_step_ms_->Add(NsToMs(iteration));
  }
  if (obs::Tracer* t = sim_->tracer()) {
    const int pid = track_.Pid(t);
    t->Begin(begin, pid, group.index, "step",
             {obs::Arg("prefill_tokens", plan.shape.prefill_tokens),
              obs::Arg("attended_tokens", plan.shape.prefill_attended_tokens),
              obs::Arg("decode_seqs", plan.shape.decode_seqs),
              obs::Arg("decode_ctx", plan.shape.decode_context_tokens),
              obs::Arg("npu_ms", NsToMs(plan.npu_time)),
              obs::Arg("cpu_ms", NsToMs(plan.cpu_time))});
    t->End(end, pid, group.index, "step");
  }
}

void Engine::RunStep(DpGroup& group) {
  // Marked running while it builds, so a callback fired by a shed cannot start
  // a second step for this group.
  group.loop_running = true;
  StepPlan& plan = group.plan;
  // Under PP, an empty micro-batch slot is a pipeline bubble: skip forward to
  // the next micro-batch with work rather than stalling the whole engine.
  bool have_work = false;
  for (int attempt = 0; attempt < std::max(1, config_.parallelism.pp); ++attempt) {
    plan.clear();
    if (BuildStep(group, &plan)) {
      have_work = true;
      break;
    }
  }
  if (!have_work) {
    group.loop_running = false;
    return;
  }
  EnsureMetrics();
  const TimeNs now = sim_->Now();
  const TimeNs end = now + IterationTime(plan.npu_time, plan.cpu_time);
  ChargeStep(group, now, end);
  ++busy_groups_;
  group.run.clear();
  group.run_done = 0;
  group.run_start = now;
  group.run.push_back({end, plan.npu_time, plan.cpu_time});
  PlanDecodeRun(group);
  ScheduleStepEnd(group);
}

void Engine::ApplyStepResult(DpGroup& group) {
  const StepPlan& plan = group.plan;
  if (m_prefill_tokens_ != nullptr) {
    m_prefill_tokens_->Inc(plan.shape.prefill_tokens);
    m_decode_tokens_->Inc(plan.shape.decode_seqs);
  }
  for (const auto& [ref, chunk] : plan.prefill_chunks) {
    Sequence* seq = ref.seq;
    if (!ref.Alive() || seq->state != SeqState::kPrefilling) {
      continue;  // cancelled, shed, or preempted while this step ran
    }
    seq->prefilled += chunk;
    stats_.prefill_tokens_processed += chunk;
    if (seq->prefill_done()) {
      FinishPrefill(group, seq, plan.pipeline_drain);
    }
  }
  for (SeqRef ref : plan.decode_seqs) {
    Sequence* seq = ref.seq;
    if (!ref.Alive() || seq->state != SeqState::kDecoding) {
      continue;  // cancelled, shed, preempted, or finished while this step ran
    }
    seq->generated += 1;
    stats_.decode_tokens_generated += 1;
    if (seq->decode_done()) {
      FinishSequence(group, seq, plan.pipeline_drain);
    }
  }
}

void Engine::AdvanceRun(DpGroup& group, size_t in_flight) {
  StepPlan& plan = group.plan;
  while (group.run_done < in_flight) {
    // No sequence finishes before a run's last step, so this fires no
    // callback.
    ApplyStepResult(group);
    const TimeNs started = group.run[group.run_done].end;
    const RunStepTimes& next = group.run[++group.run_done];
    plan.shape.decode_context_tokens += plan.shape.decode_seqs;
    plan.npu_time = next.npu_time;
    plan.cpu_time = next.cpu_time;
    ChargeStep(group, started, next.end);
  }
}

void Engine::SettleRun(DpGroup& group) {
  if (group.run_done + 1 >= group.run.size()) {
    return;  // only the last step is in flight: its event is its completion
  }
  // Step i (0-based) ended before the current event iff its completion
  // would have fired first: at an earlier time, or at this time when
  // scheduled (at the step's start) before the current event was.
  const TimeNs now = sim_->Now();
  const TimeNs firing_as_of = sim_->FiringScheduledAt();
  const size_t last = group.run.size() - 1;
  size_t in_flight = group.run_done;
  while (in_flight < last) {
    const TimeNs end = group.run[in_flight].end;
    const TimeNs started = in_flight == 0 ? group.run_start : group.run[in_flight - 1].end;
    if (end > now || (end == now && firing_as_of <= started)) {
      break;
    }
    ++in_flight;
  }
  AdvanceRun(group, in_flight);
  if (in_flight < last) {
    sim_->Cancel(group.step_event);
    group.run.resize(in_flight + 1);
    ScheduleStepEnd(group);
  }
}

void Engine::SettleRuns() {
  for (auto& group : groups_) {
    SettleRun(*group);
  }
}

void Engine::CompleteStep(DpGroup& group) {
  // A decode run's earlier steps ended without events of their own.
  AdvanceRun(group, group.run.size() - 1);
  ApplyStepResult(group);
  RunStep(group);
}

}  // namespace deepserve::flowserve
