// Sequence termination paths: prefill completion (incl. PD KV hand-off),
// decode completion, policy sheds, cancellation, and abort. Every accepted
// sequence leaves through exactly one of on_complete / on_error (or silently
// via Cancel/Abort, which suppress callbacks by design).
#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"
#include "flowserve/engine.h"

namespace deepserve::flowserve {

namespace {

// A completion after the deadline is a miss even though the request was not
// shed (fcfs/priority policies never shed; slo may finish borderline late).
bool MissedDeadline(const Sequence& seq) {
  return seq.deadline > 0 && seq.finish_time > seq.deadline;
}

}  // namespace

void Engine::CountFirstToken(const Sequence& seq) {
  if (config_.sched.ttft_budget_ms <= 0.0 || config_.role == EngineRole::kDecodeOnly) {
    // Decode-only engines admit sequences whose first token was already
    // produced on the prefill TE; charging their finish time as TTFT would
    // double-count.
    return;
  }
  TimeNs start = seq.arrival > 0 ? seq.arrival : seq.submit_time;
  if (seq.first_token_time - start > MsToNs(config_.sched.ttft_budget_ms)) {
    ++stats_.ttft_violations;
    EnsureMetrics();
    if (m_ttft_violations_ != nullptr) {
      m_ttft_violations_->Inc();
    }
  }
}

void Engine::FinishPrefill(DpGroup& group, Sequence* seq, DurationNs extra_latency) {
  auto it = std::find(group.prefilling.begin(), group.prefilling.end(), seq);
  DS_CHECK(it != group.prefilling.end());
  group.prefilling.erase(it);

  bool was_resume = seq->prefill_target > seq->prompt_len();
  if (!was_resume) {
    // The prefill step emits the first output token.
    seq->generated = std::max<int64_t>(seq->generated, 1);
    if (seq->first_token_time == 0) {
      seq->first_token_time = sim_->Now() + extra_latency;
      CountFirstToken(*seq);
      if (seq->handler.on_first_token) {
        seq->handler.on_first_token(*seq);
      }
    }
  }

  if (config_.role == EngineRole::kPrefillOnly) {
    seq->state = SeqState::kAwaitingKvSend;
    Bytes kv_bytes = static_cast<Bytes>(seq->prefilled) * config_.model.KvBytesPerToken();
    if (config_.kv_transfer_mode == KvTransferMode::kByLayer) {
      // Layers 1..L-1 streamed during prefill; only the last layer remains.
      kv_bytes /= static_cast<Bytes>(std::max(1, config_.model.num_layers));
    }
    const workload::RequestId req_id = seq->request_id;
    if (obs::Tracer* t = sim_->tracer()) {
      t->AsyncBegin(sim_->Now(), track_.Pid(t), static_cast<uint64_t>(req_id), "kv_send",
                    {obs::Arg("req", static_cast<int64_t>(req_id)),
                     obs::Arg("bytes", static_cast<int64_t>(kv_bytes)),
                     obs::Arg("tokens", seq->prefilled)});
    }
    // Captures the group by stable index, not reference: kv_send_ may hold
    // the callback past this frame, and the event fires after it unwinds.
    auto deliver = [this, gi = group.index, ref = SeqRef(seq), req_id] {
      if (obs::Tracer* t = sim_->tracer()) {
        t->AsyncEnd(sim_->Now(), track_.Pid(t), static_cast<uint64_t>(req_id), "kv_send");
      }
      if (!ref.Alive()) {
        return;
      }
      Sequence* sent = ref.seq;
      sent->finish_time = sim_->Now();
      sent->state = SeqState::kFinished;
      if (MissedDeadline(*sent)) {
        ++stats_.deadline_misses;
        EnsureMetrics();
        if (m_deadline_misses_ != nullptr) {
          m_deadline_misses_->Inc();
        }
      }
      if (sent->handler.on_complete) {
        sent->handler.on_complete(*sent);
      }
      ++stats_.completed;
      ReleaseSequence(*groups_[static_cast<size_t>(gi)], sent, /*preserve=*/true);
    };
    if (kv_send_) {
      kv_send_(*seq, kv_bytes, deliver);
    } else {
      sim_->ScheduleAfter(0, deliver);
    }
    return;
  }

  if (seq->decode_done()) {
    // Single-token request (or resume past its target): complete directly.
    seq->state = SeqState::kDecoding;
    group.decoding.push_back(seq);
    FinishSequence(group, seq, extra_latency);
    return;
  }
  seq->state = SeqState::kDecoding;
  group.decoding.push_back(seq);
}

void Engine::FinishSequence(DpGroup& group, Sequence* seq, DurationNs extra_latency) {
  auto it = std::find(group.decoding.begin(), group.decoding.end(), seq);
  if (it != group.decoding.end()) {
    group.decoding.erase(it);
  }
  seq->finish_time = sim_->Now() + extra_latency;
  seq->state = SeqState::kFinished;
  if (seq->first_token_time == 0) {
    seq->first_token_time = seq->finish_time;
    CountFirstToken(*seq);
  }
  if (MissedDeadline(*seq)) {
    ++stats_.deadline_misses;
    EnsureMetrics();
    if (m_deadline_misses_ != nullptr) {
      m_deadline_misses_->Inc();
    }
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), group.index, "seq.finish",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("generated", seq->generated)});
  }
  if (seq->handler.on_complete) {
    seq->handler.on_complete(*seq);
  }
  ++stats_.completed;
  ReleaseSequence(group, seq, /*preserve=*/true);
}

void Engine::ShedSequence(DpGroup& group, Sequence* seq, const Status& status) {
  DS_CHECK(seq->state != SeqState::kFinished);
  DetachFromGroup(group, seq);
  ++stats_.shed;
  bool missed = seq->deadline > 0 && sim_->Now() > seq->deadline;
  if (missed) {
    ++stats_.deadline_misses;
  }
  EnsureMetrics();
  if (m_shed_ != nullptr) {
    m_shed_->Inc();
    if (missed) {
      m_deadline_misses_->Inc();
    }
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), group.index, "seq.shed",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("state", SeqStateToString(seq->state)),
                obs::Arg("generated", seq->generated)});
  }
  seq->finish_time = sim_->Now();
  seq->state = SeqState::kFinished;
  if (seq->handler.on_error) {
    seq->handler.on_error(status);
  }
  // No preservation: a shed request's partial KV dies with its pins (the
  // request will not be resumed, and its suffix is off the reuse path).
  ReleaseSequence(group, seq, /*preserve=*/false);
}

void Engine::ReleaseSequence(DpGroup& group, Sequence* seq, bool preserve) {
  if (preserve && config_.enable_prefix_caching && !seq->blocks.empty()) {
    const rtc::KeyChain& keys = PromptKeys(seq);
    if (seq->context_id.empty()) {
      group.rtc->Preserve(seq->prompt, seq->blocks, keys);
    } else {
      // PreserveById commits to the prefix tree as Preserve does. Intentional
      // discard: it fails only for a context shorter than one block, which
      // leaves nothing to cache.
      (void)group.rtc->PreserveById(seq->context_id, seq->prompt, seq->blocks, keys);
    }
  }
  group.rtc->Free(seq->blocks);
  seq->blocks.clear();
  if (!seq->pic_blocks.empty()) {
    group.rtc->Free(seq->pic_blocks);
    seq->pic_blocks.clear();
  }
  --group.assigned;
  sequences_.Release(seq);
  if (sequences_.empty() && !idle_waiters_.empty()) {
    // Fire as 0-delay events: waiters (e.g. the drain completion path) run
    // after the current completion fully unwinds, and re-validate state
    // themselves — ReleaseSequence is also reached from Abort().
    auto waiters = std::move(idle_waiters_);
    idle_waiters_.clear();
    for (auto& waiter : waiters) {
      sim_->ScheduleAfter(0, std::move(waiter));
    }
  }
}

void Engine::DetachFromGroup(DpGroup& group, Sequence* seq) {
  auto drop = [seq](auto& container) {
    auto it = std::find(container.begin(), container.end(), seq);
    if (it != container.end()) {
      container.erase(it);
    }
  };
  drop(group.ready);
  drop(group.prefilling);
  drop(group.decoding);
}

Status Engine::Cancel(workload::RequestId request_id) {
  for (Sequence* seq = sequences_.front(); seq != nullptr; seq = seq->next_live) {
    if (seq->request_id != request_id || seq->state == SeqState::kFinished) {
      continue;
    }
    DpGroup& group = GroupFor(*seq);
    SettleRun(group);
    DetachFromGroup(group, seq);
    ++stats_.cancelled;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), group.index, "seq.cancel",
                 {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                  obs::Arg("state", SeqStateToString(seq->state))});
    }
    // No preservation: a cancelled request's partial KV dies with its pins.
    ReleaseSequence(group, seq, /*preserve=*/false);
    return Status::Ok();
  }
  return NotFoundError("no in-flight request " + std::to_string(request_id));
}

size_t Engine::Abort() {
  SettleRuns();
  size_t aborted = 0;
  int64_t lost_tokens = 0;
  while (!sequences_.empty()) {
    Sequence* seq = sequences_.back();
    lost_tokens += std::max<int64_t>(0, seq->context_len());
    DpGroup& group = GroupFor(*seq);
    DetachFromGroup(group, seq);
    ReleaseSequence(group, seq, /*preserve=*/false);
    ++aborted;
  }
  stats_.aborted += static_cast<int64_t>(aborted);
  stats_.aborted_kv_tokens += lost_tokens;
  return aborted;
}

}  // namespace deepserve::flowserve
