#include "serving/task_executor.h"

#include <utility>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::serving {

std::string_view TeStateToString(TeState state) {
  switch (state) {
    case TeState::kReady:
      return "ready";
    case TeState::kDraining:
      return "draining";
    case TeState::kStopped:
      return "stopped";
    case TeState::kFailed:
      return "failed";
  }
  return "?";
}

TaskExecutor::TaskExecutor(sim::Simulator* sim, TeConfig config)
    : sim_(sim), config_(std::move(config)) {
  DS_CHECK(sim_ != nullptr);
  engine_ = std::make_unique<flowserve::Engine>(sim_, config_.engine);
  if (config_.engine.role == flowserve::EngineRole::kPrefillOnly) {
    InstallKvSend();
  }
}

Status TaskExecutor::AttachFabric(distflow::TransferEngine* transfer) {
  DS_CHECK(transfer != nullptr);
  const model::ParallelismConfig& par = config_.engine.parallelism;
  if (static_cast<int>(config_.npus.size()) != par.TotalNpus()) {
    return InvalidArgumentError("TE " + std::to_string(config_.id) + " has " +
                                std::to_string(config_.npus.size()) + " NPUs, " +
                                par.ToString() + " needs " + std::to_string(par.TotalNpus()));
  }
  transfer_ = transfer;
  DS_RETURN_IF_ERROR(transfer_->RegisterEndpoint(config_.id, config_.npus[0]));
  // RTC populate/swap traffic rides DistFlow between this TE's own tiers.
  engine_->SetRtcTransferFn([this](rtc::Tier src, rtc::Tier dst, Bytes bytes,
                                   std::function<void()> done) {
    distflow::MemRegion from{config_.id, src, 0, bytes};
    distflow::MemRegion to{config_.id, dst, 0, bytes};
    Status status = transfer_->Transfer(from, to, std::move(done));
    DS_CHECK(status.ok()) << status.ToString();
  });
  return Status::Ok();
}

void TaskExecutor::InstallKvSend() {
  engine_->SetKvSendFn([this](const flowserve::Sequence& seq, Bytes bytes,
                              std::function<void()> done) {
    auto it = handoffs_.find(seq.request_id);
    DS_CHECK(it != handoffs_.end()) << "prefill finished with no hand-off target";
    TaskExecutor* decode_te = it->second.decode_te;
    if (transfer_ != nullptr && decode_te != nullptr) {
      distflow::MemRegion src{config_.id, rtc::Tier::kNpu, 0, bytes};
      distflow::MemRegion dst{decode_te->id(), rtc::Tier::kNpu, 0, bytes};
      Status status = transfer_->Transfer(src, dst, std::move(done));
      DS_CHECK(status.ok()) << status.ToString();
    } else {
      sim_->ScheduleAfter(0, std::move(done));
    }
  });
}

void TaskExecutor::SubmitUnified(const workload::RequestSpec& spec, ResponseHandler handler,
                                 rtc::KeyChain keys) {
  DS_CHECK(role() == flowserve::EngineRole::kColocated)
      << "unified tasks need a PD-colocated engine";
  engine_->Submit(spec, std::move(handler), std::move(keys));
}

void TaskExecutor::SubmitPrefill(const workload::RequestSpec& spec, TaskExecutor* decode_te,
                                 ResponseHandler handler, rtc::KeyChain keys) {
  DS_CHECK(role() == flowserve::EngineRole::kPrefillOnly);
  DS_CHECK(decode_te != nullptr);
  DS_CHECK(decode_te->role() == flowserve::EngineRole::kDecodeOnly);
  ResponseHandler prefill;
  prefill.on_first_token = std::move(handler.on_first_token);
  prefill.on_complete = [this, id = spec.id](const flowserve::Sequence&) {
    // Prefill finished and KV delivered: start the decode task.
    auto it = handoffs_.find(id);
    DS_CHECK(it != handoffs_.end());
    PendingHandoff handoff = std::move(it->second);
    handoffs_.erase(it);
    handoff.decode_te->AcceptPrefilled(handoff.spec, std::move(handoff.keys),
                                       std::move(handoff.handler));
  };
  prefill.on_error = [this, id = spec.id](const Status& status) {
    // Shed during prefill: drop the pending hand-off (the decode task never
    // starts) and surface the error once.
    auto it = handoffs_.find(id);
    if (it == handoffs_.end()) {
      return;
    }
    auto on_error = std::move(it->second.handler.on_error);
    handoffs_.erase(it);
    if (on_error) {
      on_error(status);
    }
  };
  handoffs_[spec.id] = PendingHandoff{decode_te, spec, keys, std::move(handler)};
  engine_->Submit(spec, std::move(prefill), std::move(keys));
}

bool TaskExecutor::CancelRequest(workload::RequestId request_id) {
  bool dropped = handoffs_.erase(request_id) > 0;
  // kNotFound just means this side never admitted (or already finished) the
  // sequence — e.g. the decode half of a pair still mid-hand-off.
  dropped = engine_->Cancel(request_id).ok() || dropped;
  return dropped;
}

size_t TaskExecutor::Fail() {
  state_ = TeState::kFailed;
  handoffs_.clear();
  on_drained_ = nullptr;  // a crash supersedes any drain in progress
  return engine_->Abort();
}

void TaskExecutor::StartDrain(std::function<void()> on_drained) {
  DS_CHECK(state_ == TeState::kReady)
      << "drain needs a ready TE, TE " << config_.id << " is " << TeStateToString(state_);
  state_ = TeState::kDraining;
  drain_started_ = sim_->Now();
  drain_inflight_ = queue_depth();
  on_drained_ = std::move(on_drained);
  engine_->BeginDrain();
  ArmDrainWait();
}

void TaskExecutor::ArmDrainWait() {
  engine_->NotifyWhenIdle([this] {
    if (state_ != TeState::kDraining) {
      return;  // crashed / force-stopped mid-drain; the failure path owns cleanup
    }
    if (!engine_->idle() || !handoffs_.empty()) {
      // A committed PD hand-off (or retry) landed after the engine emptied:
      // keep waiting — drains lose nothing.
      ArmDrainWait();
      return;
    }
    auto done = std::move(on_drained_);
    on_drained_ = nullptr;
    if (done) {
      done();
    }
  });
}

void TaskExecutor::AcceptPrefilled(const workload::RequestSpec& spec, rtc::KeyChain keys,
                                   ResponseHandler handler) {
  if (!ready() && state_ != TeState::kDraining) {
    return;  // decode TE died mid-hand-off; the JE failure path retries
  }
  // kDraining still accepts: the hand-off was committed while this TE was
  // ready, and a drain must finish — not orphan — in-flight work.
  Status status = engine_->SubmitPrefilled(spec, handler, keys);
  if (status.code() == StatusCode::kResourceExhausted) {
    // Decode side momentarily out of KV: retry shortly (simple backpressure).
    // The retry shares the spec's prompt and the chain; it copies no tokens.
    sim_->ScheduleAfter(MsToNs(10), [this, spec, keys = std::move(keys),
                                     handler = std::move(handler)] {
      AcceptPrefilled(spec, keys, handler);
    });  // ready() is re-checked on entry, so a dead TE stops the retry loop
  } else if (!status.ok() && handler.on_error) {
    handler.on_error(status);  // non-retryable rejection: surface it instead of dropping
  }
}

}  // namespace deepserve::serving
