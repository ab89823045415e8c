// Engine construction, wiring, and the request submission paths. The step
// loop lives in engine_step.cc and the completion/teardown paths in
// engine_finish.cc; policy decisions are delegated to sched::SchedPolicy.
#include "flowserve/engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/time_units.h"

namespace deepserve::flowserve {

namespace {

// DRAM tier of each DP group's block pool, in blocks.
constexpr int64_t kDramBlockCapacity = int64_t{1} << 20;

}  // namespace

std::string_view EngineRoleToString(EngineRole role) {
  switch (role) {
    case EngineRole::kColocated:
      return "colocated";
    case EngineRole::kPrefillOnly:
      return "prefill";
    case EngineRole::kDecodeOnly:
      return "decode";
  }
  return "?";
}

std::string_view SeqStateToString(SeqState state) {
  switch (state) {
    case SeqState::kTokenizing:
      return "tokenizing";
    case SeqState::kWaitingPopulate:
      return "waiting-populate";
    case SeqState::kQueued:
      return "queued";
    case SeqState::kPrefilling:
      return "prefilling";
    case SeqState::kAwaitingKvSend:
      return "awaiting-kv-send";
    case SeqState::kDecoding:
      return "decoding";
    case SeqState::kFinished:
      return "finished";
  }
  return "?";
}

Result<int64_t> KvBlockCapacity(const EngineConfig& config) {
  const model::ParallelismConfig& par = config.parallelism;
  if (par.tp < 1 || par.pp < 1 || par.dp < 1) {
    return InvalidArgumentError("parallelism " + par.ToString() +
                                ": tp, pp and dp must each be >= 1");
  }
  if (config.block_size <= 0) {
    return InvalidArgumentError("KV block size must be > 0, got " +
                                std::to_string(config.block_size));
  }
  if (config.kv_block_capacity_override > 0) {
    return config.kv_block_capacity_override;
  }
  model::CostModel cost(config.model, config.npu_spec,
                        model::ParallelismConfig{config.parallelism.tp, config.parallelism.pp, 1});
  if (config.ae_disagg.enabled) {
    cost.SetAeDisagg(config.ae_disagg);
  }
  int64_t blocks = cost.MaxKvTokensPerNpu() / config.block_size;
  if (blocks <= 0) {
    return InvalidArgumentError("model " + config.model.name + " does not fit on " +
                                config.npu_spec.name + " at " +
                                config.parallelism.ToString() + ": no room for one " +
                                std::to_string(config.block_size) + "-token KV block");
  }
  return blocks;
}

Engine::Engine(sim::Simulator* sim, EngineConfig config)
    : sim_(sim), config_(config),
      cost_(config.model, config.npu_spec,
            model::ParallelismConfig{config.parallelism.tp, config.parallelism.pp, 1}),
      tokenizer_(config.model.vocab_size) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK_GE(config_.parallelism.dp, 1);
  auto policy = sched::MakeSchedPolicy(config_.sched);
  DS_CHECK(policy.ok()) << policy.status().ToString();
  policy_ = std::move(*policy);
  if (config_.ae_disagg.enabled) {
    DS_CHECK(config_.model.is_moe()) << "AE disaggregation needs an MoE model";
    cost_.SetAeDisagg(config_.ae_disagg);
  }
  Result<int64_t> capacity = KvBlockCapacity(config_);
  DS_CHECK(capacity.ok()) << capacity.status().ToString();
  kv_block_capacity_ = *capacity;
  DS_CHECK_GT(kv_block_capacity_, 0);
  for (int g = 0; g < config_.parallelism.dp; ++g) {
    auto group = std::make_unique<DpGroup>();
    group->index = g;
    rtc::RtcConfig rtc_config;
    rtc_config.block_size = config_.block_size;
    rtc_config.pool.npu_capacity = kv_block_capacity_;
    rtc_config.pool.dram_capacity = kDramBlockCapacity;
    rtc_config.bytes_per_block =
        config_.model.KvBytesPerToken() * static_cast<Bytes>(config_.block_size);
    rtc_config.enable_pic = config_.enable_pic;
    group->rtc = std::make_unique<rtc::RtcMaster>(sim_, rtc_config);
    groups_.push_back(std::move(group));
  }
}

Engine::~Engine() = default;

int Engine::TracePid() {
  obs::Tracer* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return -1;
  }
  if (trace_pid_ < 0) {
    trace_pid_ = tracer->NewTrack("engine/" + std::string(EngineRoleToString(config_.role)) +
                                  "/" + config_.model.name);
    for (const auto& group : groups_) {
      tracer->SetLaneName(trace_pid_, group->index, "dp" + std::to_string(group->index));
    }
  }
  return trace_pid_;
}

void Engine::EnsureMetrics() {
  obs::MetricsRegistry* metrics = sim_->metrics();
  if (metrics == nullptr || m_steps_ != nullptr) {
    return;
  }
  m_steps_ = metrics->counter("engine.steps");
  m_preemptions_ = metrics->counter("engine.preemptions");
  m_prefill_tokens_ = metrics->counter("engine.prefill_tokens");
  m_decode_tokens_ = metrics->counter("engine.decode_tokens");
  m_shed_ = metrics->counter("engine.shed");
  m_deadline_misses_ = metrics->counter("engine.deadline_misses");
  m_tbt_violations_ = metrics->counter("engine.tbt_violations");
  m_ttft_violations_ = metrics->counter("engine.ttft_violations");
  m_step_ms_ = metrics->stats("engine.step_ms");
}

void Engine::NotifyWhenIdle(std::function<void()> cb) {
  if (sequences_.empty()) {
    sim_->ScheduleAfter(0, std::move(cb));
    return;
  }
  idle_waiters_.push_back(std::move(cb));
}

void Engine::AttachNpus(const std::vector<hw::Npu*>& npus) {
  const int ranks = config_.parallelism.tp * config_.parallelism.pp;
  DS_CHECK_EQ(static_cast<int>(npus.size()), ranks * config_.parallelism.dp)
      << "engine needs one NPU per TP*PP*DP rank";
  Bytes per_npu_block =
      config_.model.KvBytesPerToken() * static_cast<Bytes>(config_.block_size) /
      static_cast<Bytes>(ranks);
  for (int g = 0; g < config_.parallelism.dp; ++g) {
    for (int r = 0; r < ranks; ++r) {
      auto executor = std::make_unique<rtc::RtcExecutor>(
          npus[static_cast<size_t>(g * ranks + r)], per_npu_block);
      groups_[static_cast<size_t>(g)]->rtc->AddListener(executor.get());
      rtc_executors_.push_back(std::move(executor));
    }
  }
}

void Engine::SetRtcTransferFn(rtc::TransferFn fn) {
  for (auto& group : groups_) {
    group->rtc->SetTransferFn(fn);
  }
}

rtc::RtcMaster& Engine::rtc(int dp_group) {
  DS_CHECK_GE(dp_group, 0);
  DS_CHECK_LT(dp_group, static_cast<int>(groups_.size()));
  return *groups_[static_cast<size_t>(dp_group)]->rtc;
}

int Engine::PickDpGroup() const {
  // Count every live sequence already assigned to each group (including ones
  // still in the tokenizer), so a burst of simultaneous submits spreads.
  int best = 0;
  for (size_t g = 1; g < groups_.size(); ++g) {
    if (groups_[g]->assigned < groups_[static_cast<size_t>(best)]->assigned) {
      best = static_cast<int>(g);
    }
  }
  return best;
}

Sequence* Engine::AddSequence(const workload::RequestSpec& spec, int dp_group,
                              rtc::KeyChain keys) {
  Sequence* seq = sequences_.Add();
  seq->request_id = spec.id;
  seq->prompt = spec.prompt;
  seq->keys = std::move(keys);
  seq->decode_target = std::max<int64_t>(1, spec.decode_len);
  seq->context_id = spec.context_id;
  seq->priority = spec.priority;
  seq->deadline = spec.deadline;
  seq->prefill_target = seq->prompt_len();
  seq->arrival = spec.arrival;
  seq->submit_time = sim_->Now();
  seq->dp_group = dp_group;
  ++GroupFor(*seq).assigned;
  return seq;
}

std::span<const rtc::BlockKey> Engine::PromptKeys(Sequence* seq) {
  if (seq->keys.block_size() != config_.block_size) {
    seq->keys = rtc::KeyChain::Hash(seq->prompt, config_.block_size);
    ++stats_.prompt_hashes;
  }
  return seq->keys.span();
}

void Engine::Submit(const workload::RequestSpec& spec, ResponseHandler handler,
                    rtc::KeyChain keys) {
  DS_CHECK(!draining_) << "Submit() on a draining engine; the TE stopped admitting";
  const int64_t context =
      static_cast<int64_t>(spec.prompt.size()) + std::max<int64_t>(1, spec.decode_len);
  if (context / config_.block_size + 1 > kv_block_capacity_) {
    // Never admissible here. The error fires from an event, so a caller that
    // is still inside its own dispatch is not re-entered.
    if (handler.on_error) {
      sim_->ScheduleAfter(0, [on_error = std::move(handler.on_error), id = spec.id] {
        on_error(InvalidArgumentError("request " + std::to_string(id) +
                                      " context can never fit this engine's KV capacity"));
      });
    }
    return;
  }
  Sequence* seq = AddSequence(spec, PickDpGroup(), std::move(keys));
  seq->handler = std::move(handler);
  seq->state = SeqState::kTokenizing;
  ++stats_.submitted;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), seq->dp_group, "seq.submit",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("prompt_len", seq->prompt_len()),
                obs::Arg("decode_len", seq->decode_target),
                obs::Arg("priority", seq->priority)});
  }
  // The tokenizer module runs independently ahead of sched-enqueue (§4.1).
  DurationNs tokenize = tokenizer_.EncodeDuration(static_cast<size_t>(seq->prompt_len()));
  sim_->ScheduleAfter(tokenize, [this, ref = SeqRef(seq)] {
    if (ref.Alive()) {
      SchedEnqueue(ref.seq);
    }
  });
}

void Engine::SchedEnqueue(Sequence* seq) {
  DpGroup& group = GroupFor(*seq);
  rtc::MatchInfo match;
  if (config_.enable_prefix_caching) {
    if (!seq->context_id.empty()) {
      match = group.rtc->MatchByID(seq->context_id);
    }
    if (!match.hit()) {
      match = group.rtc->MatchByPrefixToken(seq->prompt, PromptKeys(seq));
    }
    // Never reuse the full prompt: at least the final token must run through
    // the model to produce the first output.
    match = group.rtc->TruncateMatch(match, seq->prompt_len() - 1);
  }
  if (match.needs_populate()) {
    // Fitted cost model (§4.2): fetch when moving the off-NPU KV is no slower
    // than recomputing it.
    Bytes fetch_bytes =
        static_cast<Bytes>(match.offnpu_tokens) * config_.model.KvBytesPerToken();
    DurationNs fetch_time =
        SToNs(static_cast<double>(fetch_bytes) / (config_.populate_bandwidth_gbps * 1e9));
    if (cost_.RecomputeDuration(match.offnpu_tokens) >= fetch_time) {
      group.rtc->Acquire(match.blocks);
      seq->blocks = match.blocks;
      auto ticket = group.rtc->Populate(match);
      if (ticket.ok()) {
        ++stats_.populates_started;
        seq->state = SeqState::kWaitingPopulate;
        seq->reused_tokens = match.matched_tokens;
        group.rtc->OnPopulateReady(*ticket, [this, ref = SeqRef(seq)] {
          if (ref.Alive()) {
            FinishEnqueue(ref.seq);
          }
        });
        return;
      }
      // Could not reserve NPU space for the fetch: fall back to the
      // NPU-resident prefix only.
      group.rtc->Free(seq->blocks);
      seq->blocks.clear();
      match = group.rtc->TruncateMatch(match, match.npu_tokens);
    } else {
      ++stats_.populates_rejected;
      match = group.rtc->TruncateMatch(match, match.npu_tokens);
    }
  }
  group.rtc->Acquire(match.blocks);
  seq->blocks = match.blocks;
  seq->reused_tokens = match.matched_tokens;
  // The RTC owns the PIC switch: with PIC off this matches nothing.
  auto pic = group.rtc->MatchPositionIndependent(seq->prompt, match.matched_tokens);
  if (pic.matched_tokens > 0) {
    group.rtc->Acquire(pic.blocks);
    seq->pic_blocks = std::move(pic.blocks);
    seq->pic_tokens = pic.matched_tokens;
    stats_.pic_reused_tokens += pic.matched_tokens;
  }
  FinishEnqueue(seq);
}

void Engine::FinishEnqueue(Sequence* seq) {
  DpGroup& group = GroupFor(*seq);
  seq->block_tokens =
      static_cast<int64_t>(seq->blocks.size()) * static_cast<int64_t>(config_.block_size);
  seq->prefilled = seq->reused_tokens;
  stats_.reused_tokens += seq->reused_tokens;
  seq->state = SeqState::kQueued;
  seq->enqueue_time = sim_->Now();
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), group.index, "seq.enqueue",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("reused_tokens", seq->reused_tokens),
                obs::Arg("pic_tokens", seq->pic_tokens)});
  }
  group.ready.push_back(seq);
  KickLoop(group);
}

Status Engine::SubmitPrefilled(const workload::RequestSpec& spec, ResponseHandler handler,
                               rtc::KeyChain keys) {
  DS_CHECK(config_.role != EngineRole::kPrefillOnly)
      << "prefill-only engines cannot accept prefilled sequences";
  const int dp_group = PickDpGroup();
  DpGroup& group = *groups_[static_cast<size_t>(dp_group)];
  // The prefill TE produced the prompt's KV and the first token: the context
  // is the prompt plus that token.
  const int64_t context = static_cast<int64_t>(spec.prompt.size()) + 1;
  std::vector<rtc::BlockId> blocks;
  DS_RETURN_IF_ERROR(
      group.rtc->AllocBlocks((context + config_.block_size - 1) / config_.block_size, &blocks));
  Sequence* seq = AddSequence(spec, dp_group, std::move(keys));
  seq->prefilled = seq->prompt_len();
  seq->generated = 1;  // the prefill TE produced the first token
  seq->handler = std::move(handler);
  seq->blocks = std::move(blocks);
  seq->block_tokens =
      static_cast<int64_t>(seq->blocks.size()) * static_cast<int64_t>(config_.block_size);
  seq->state = SeqState::kDecoding;
  ++stats_.submitted;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), seq->dp_group, "seq.submit",
               {obs::Arg("req", static_cast<int64_t>(seq->request_id)),
                obs::Arg("prompt_len", seq->prompt_len()),
                obs::Arg("decode_len", seq->decode_target),
                obs::Arg("priority", seq->priority), obs::Arg("prefilled", true)});
  }
  if (seq->decode_done()) {
    sim_->ScheduleAfter(0, [this, ref = SeqRef(seq), gi = group.index] {
      if (ref.Alive()) {
        FinishSequence(*groups_[static_cast<size_t>(gi)], ref.seq, 0);
      }
    });
    return Status::Ok();
  }
  group.decoding.push_back(seq);
  KickLoop(group);
  return Status::Ok();
}

void Engine::SetStepTimeMultiplier(double multiplier) {
  DS_CHECK(multiplier > 0.0);
  step_time_multiplier_ = multiplier;
}

LoadInfo Engine::load() const {
  LoadInfo info;
  double usage_sum = 0;
  for (const auto& group : groups_) {
    info.running += static_cast<int64_t>(group->prefilling.size() + group->decoding.size());
    usage_sum += static_cast<double>(group->rtc->npu_blocks_used()) /
                 static_cast<double>(kv_block_capacity_);
    for (const Sequence* seq : group->prefilling) {
      info.inflight_tokens += seq->prompt_len();
    }
    for (const Sequence* seq : group->decoding) {
      info.inflight_tokens += seq->context_len();
    }
  }
  info.kv_usage = usage_sum / static_cast<double>(groups_.size());
  info.waiting = static_cast<int64_t>(sequences_.size()) - info.running;
  return info;
}

bool Engine::busy() const { return busy_groups_ > 0; }

bool Engine::idle() const { return sequences_.empty(); }

}  // namespace deepserve::flowserve
