// Per-request sequence state inside a FlowServe engine.
#ifndef DEEPSERVE_FLOWSERVE_SEQUENCE_H_
#define DEEPSERVE_FLOWSERVE_SEQUENCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "workload/request.h"

namespace deepserve::flowserve {

enum class SeqState {
  kTokenizing,       // in the tokenizer module
  kWaitingPopulate,  // async KV prefetch in flight (§4.2)
  kQueued,           // ready for the sched-loop to admit
  kPrefilling,       // (chunked) prefill in progress
  kAwaitingKvSend,   // prefill-only TE: KV hand-off to decode TE in flight
  kDecoding,
  kFinished,
};

std::string_view SeqStateToString(SeqState state);

struct Sequence {
  workload::RequestId request_id = 0;
  workload::Prompt prompt;  // shares the request's token storage
  // `prompt`'s block-key chain at this engine's block size, for the RTC
  // prefix match and the cache commit at release. Usually the JE's chain,
  // shared; empty until the engine needs it when none came with the request.
  rtc::KeyChain keys;
  int64_t decode_target = 0;
  std::string context_id;  // explicit-cache id ("" = implicit only)
  int priority = 1;        // 0 = interactive, 1 = normal, 2 = batch
  TimeNs deadline = 0;     // absolute completion deadline; 0 = none

  SeqState state = SeqState::kTokenizing;

  // Progress. `prefilled` counts context tokens with KV on this engine's NPUs
  // (including reused cache); `generated` counts output tokens. After a
  // preemption the KV is recomputed, so `prefill_target` grows to cover the
  // already-generated suffix as well.
  int64_t reused_tokens = 0;
  int64_t prefilled = 0;
  int64_t prefill_target = 0;
  int64_t generated = 0;

  // KV blocks pinned by this sequence (reused + privately allocated).
  std::vector<rtc::BlockId> blocks;
  // Position-independent reuse: pinned source blocks and the tokens they
  // cover. PIC reuse discounts prefill compute but the sequence still writes
  // its own (position-adjusted) KV into `blocks`.
  std::vector<rtc::BlockId> pic_blocks;
  int64_t pic_tokens = 0;
  // How many tokens of KV capacity `blocks` covers.
  int64_t block_tokens = 0;

  int dp_group = 0;
  int micro_batch = -1;  // PP home micro-batch (once admitted)

  TimeNs arrival = 0;           // request arrival (workload clock)
  TimeNs submit_time = 0;       // handed to this engine
  TimeNs enqueue_time = 0;      // entered the ready queue
  TimeNs first_token_time = 0;  // end of prefill
  TimeNs finish_time = 0;

  // Fired once when the first token is produced, and once on termination:
  // exactly one of on_complete (success) or on_error (shed / deadline
  // exceeded) runs for every accepted sequence.
  std::function<void(const Sequence&)> on_first_token;
  std::function<void(const Sequence&)> on_complete;
  std::function<void(const Sequence&, const Status&)> on_error;

  // SequenceSlab bookkeeping: the slot's generation (bumped on release) and
  // the live list in submission order.
  uint32_t generation = 0;
  Sequence* prev_live = nullptr;
  Sequence* next_live = nullptr;

  int64_t prompt_len() const { return static_cast<int64_t>(prompt.size()); }
  // Context the KV cache must hold: processed prefix plus generated tokens
  // not already covered by a (post-preemption) recompute target.
  int64_t context_len() const {
    return prefilled + generated - (prefill_target - prompt_len());
  }
  bool prefill_done() const { return prefilled >= prefill_target; }
  bool decode_done() const { return generated >= decode_target; }
};

// A generation-checked reference to a slab-owned Sequence. Anything that
// outlives the current call (a deferred callback, a step plan) holds one of
// these rather than a bare pointer, and re-validates it with Alive().
struct SeqRef {
  Sequence* seq;
  uint32_t generation;

  explicit SeqRef(Sequence* s) : seq(s), generation(s->generation) {}
  bool Alive() const { return seq->generation == generation; }
};

// Owns an engine's sequences. Slots are never freed, so a SeqRef's pointer
// always addresses a Sequence. Release bumps the slot's generation, so a
// reference taken before it stops resolving even after a new request reuses
// the slot. Live sequences also form an intrusive list in submission order:
// release is O(1), and iteration order matches submission order.
class SequenceSlab {
 public:
  // A fresh sequence, appended to the live list.
  Sequence* Add() {
    Sequence* seq;
    if (free_.empty()) {
      slots_.push_back(std::make_unique<Sequence>());
      seq = slots_.back().get();
    } else {
      seq = free_.back();
      free_.pop_back();
    }
    seq->prev_live = tail_;
    (tail_ != nullptr ? tail_->next_live : head_) = seq;
    tail_ = seq;
    ++size_;
    return seq;
  }

  // Unlinks `seq`, drops its buffers and callbacks, and recycles its slot
  // under the next generation.
  void Release(Sequence* seq) {
    (seq->prev_live != nullptr ? seq->prev_live->next_live : head_) = seq->next_live;
    (seq->next_live != nullptr ? seq->next_live->prev_live : tail_) = seq->prev_live;
    const uint32_t next_generation = seq->generation + 1;
    *seq = Sequence{};
    seq->generation = next_generation;
    free_.push_back(seq);
    --size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Oldest and newest live sequences; walk with Sequence::next_live.
  Sequence* front() const { return head_; }
  Sequence* back() const { return tail_; }

 private:
  std::vector<std::unique_ptr<Sequence>> slots_;
  std::vector<Sequence*> free_;  // LIFO
  Sequence* head_ = nullptr;
  Sequence* tail_ = nullptr;
  size_t size_ = 0;
};

}  // namespace deepserve::flowserve

#endif  // DEEPSERVE_FLOWSERVE_SEQUENCE_H_
