// The logical inference request exchanged between the workload generators,
// the DeepServe platform, and the FlowServe engines.
#ifndef DEEPSERVE_WORKLOAD_REQUEST_H_
#define DEEPSERVE_WORKLOAD_REQUEST_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace deepserve::workload {

using RequestId = uint64_t;

// An immutable prompt shared by handle. Whoever generates a request builds
// its tokens once; every later holder (the Frontend, the JE's control log and
// outstanding map, a TE's pending hand-off, an engine Sequence) shares that
// one storage, so passing a request along never copies its tokens.
class Prompt {
 public:
  using const_iterator = std::span<const TokenId>::iterator;
  using iterator = const_iterator;

  Prompt() = default;
  // Takes ownership of `tokens` (implicit: a prompt is its token vector).
  Prompt(std::vector<TokenId> tokens)  // NOLINT(google-explicit-constructor)
      : tokens_(std::make_shared<const std::vector<TokenId>>(std::move(tokens))) {}

  std::span<const TokenId> span() const {
    return tokens_ != nullptr ? std::span<const TokenId>(*tokens_) : std::span<const TokenId>();
  }
  operator std::span<const TokenId>() const { return span(); }  // NOLINT
  size_t size() const { return tokens_ != nullptr ? tokens_->size() : 0; }
  bool empty() const { return size() == 0; }
  TokenId operator[](size_t i) const { return (*tokens_)[i]; }
  const_iterator begin() const { return span().begin(); }
  const_iterator end() const { return span().end(); }
  // Whether both handles refer to one token storage (not merely equal tokens).
  bool SharesStorage(const Prompt& other) const { return tokens_ == other.tokens_; }

  // Token-wise equality.
  friend bool operator==(const Prompt& a, const Prompt& b) {
    return std::ranges::equal(a.span(), b.span());
  }

 private:
  std::shared_ptr<const std::vector<TokenId>> tokens_;
};

struct RequestSpec {
  RequestId id = 0;
  TimeNs arrival = 0;
  // Prompt token ids (already tokenized; examples drive the Tokenizer).
  Prompt prompt;
  // Ground-truth number of output tokens this request will generate. The
  // scheduler must NOT read this directly — it sees it only through a
  // DecodeLengthPredictor (§5.3.2).
  int64_t decode_len = 0;
  // Optional explicit context-caching id (RTC MatchByID path); empty = none.
  std::string context_id;
  // Multi-tenant service class: 0 = interactive (jumps queues), 1 = normal,
  // 2 = batch/background. Schedulers admit lower values first.
  int priority = 1;
  // Absolute completion deadline (sim clock); 0 = none. Threaded from
  // ChatRequest.deadline down to the engine scheduler, where deadline-aware
  // policies use it for EDF ordering and shed decisions.
  TimeNs deadline = 0;

  int64_t prefill_len() const { return static_cast<int64_t>(prompt.size()); }
};

}  // namespace deepserve::workload

#endif  // DEEPSERVE_WORKLOAD_REQUEST_H_
