// The Job Executor's global prompt trees (§5.2) and the locality-aware pick
// over them (the paper's select_tes_prefix_match).
//
// A prompt tree is a RadixTree over the same block-key chains the TE-local
// RTC trees use. Every node carries the member slots of the TEs a prompt
// through it was routed to, as a bit word, so the deepest node on a
// request's match path tagged with a TE is how long a prefix that TE has
// preserved.
#ifndef DEEPSERVE_SERVING_PROMPT_TREE_H_
#define DEEPSERVE_SERVING_PROMPT_TREE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "rtc/radix_tree.h"
#include "workload/job.h"

namespace deepserve::serving {

// The JE's dense member slots. The first Assign of a TeId takes the next
// slot, and a slot is never reused: a replacement TE (a new id) never
// inherits a departed TE's tags, while a TE that leaves and rejoins under its
// id finds its own tags again.
class TeSlots {
 public:
  // The slot of `te`, assigned on first sight.
  uint32_t Assign(workload::TeId te) {
    DS_CHECK_GE(te, 0) << "a TE id is never negative";
    const auto index = static_cast<size_t>(te);
    if (index >= by_id_.size()) {
      by_id_.resize(index + 1, kNone);
    }
    if (by_id_[index] == kNone) {
      by_id_[index] = next_++;
    }
    return by_id_[index];
  }
  // The slot of `te`, which must have been assigned.
  uint32_t Of(workload::TeId te) const {
    const auto index = static_cast<size_t>(te);
    DS_CHECK(te >= 0 && index < by_id_.size() && by_id_[index] != kNone)
        << "TE " << te << " has no member slot";
    return by_id_[index];
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> by_id_;  // indexed by TeId
  uint32_t next_ = 0;
};

// Node payload: the member slots (TeSlots) tagged on this span, as one bit
// word for slots below 64 and a heap spill for the rest, which a fleet of at
// most 64 members never allocates. A split copies the tags to both halves
// (both spans were routed to the same TEs).
class TePresence {
 public:
  TePresence() = default;
  TePresence(const TePresence& other)
      : word_(other.word_),
        spill_(other.spill_ != nullptr ? std::make_unique<std::vector<uint64_t>>(*other.spill_)
                                       : nullptr) {}
  TePresence(TePresence&&) noexcept = default;
  TePresence& operator=(TePresence&&) noexcept = default;

  void Add(uint32_t slot) {
    if (slot < 64) {
      word_ |= uint64_t{1} << slot;
      return;
    }
    if (spill_ == nullptr) {
      spill_ = std::make_unique<std::vector<uint64_t>>();
    }
    const size_t word = slot / 64 - 1;
    if (word >= spill_->size()) {
      spill_->resize(word + 1);
    }
    (*spill_)[word] |= uint64_t{1} << (slot % 64);
  }
  bool Has(uint32_t slot) const {
    if (slot < 64) {
      return (word_ >> slot) & 1;
    }
    const size_t word = slot / 64 - 1;
    return spill_ != nullptr && word < spill_->size() && (((*spill_)[word] >> (slot % 64)) & 1);
  }
  // The tagged slots, ascending.
  std::vector<uint32_t> Slots() const {
    std::vector<uint32_t> out;
    auto push = [&out](uint64_t bits, uint32_t base) {
      for (; bits != 0; bits &= bits - 1) {
        out.push_back(base + static_cast<uint32_t>(std::countr_zero(bits)));
      }
    };
    push(word_, 0);
    if (spill_ != nullptr) {
      for (size_t w = 0; w < spill_->size(); ++w) {
        push((*spill_)[w], static_cast<uint32_t>(64 * (w + 1)));
      }
    }
    return out;
  }
  TePresence SplitTail(size_t) const { return *this; }

 private:
  uint64_t word_ = 0;                             // slots 0-63
  std::unique_ptr<std::vector<uint64_t>> spill_;  // word w: slots 64(w+1)...
};

using PromptTree = rtc::RadixTree<TePresence>;
static_assert(sizeof(PromptTree::Node) <= 144,
              "a prompt-tree node keeps its edge and children out of line");

// The locality-aware pick: among `tes`, the candidate with the longest
// preserved prefix of `match`, ties to the lowest queue_depth() and then to
// the earliest in `tes`; with no candidate tagged anywhere on the match, the
// plain least-loaded one. `*hit` reports whether a tagged candidate won.
// `slots` maps each candidate's id() to the slot its tags carry.
//
// Depth grows strictly along a match (the partially matched node, if any, is
// deepest), so the deepest node carrying any candidate's tag holds exactly
// the candidates at the maximum preserved depth. The walk stops there: its
// cost does not depend on how many tags the shallower nodes have collected.
// `Te` provides id() and queue_depth(); `tes` must be non-empty.
template <typename Te>
Te* LocalityPick(const PromptTree::MatchResult& match, const std::vector<Te*>& tes,
                 const TeSlots& slots, bool* hit) {
  // Least-loaded candidate tagged on `node` (any candidate when null).
  auto least_loaded_tagged = [&](const PromptTree::Node* node) {
    Te* best = nullptr;
    for (Te* te : tes) {
      if ((node == nullptr || node->value.Has(slots.Of(te->id()))) &&
          (best == nullptr || te->queue_depth() < best->queue_depth())) {
        best = te;
      }
    }
    return best;
  };
  *hit = true;
  if (match.partial != nullptr) {
    if (Te* te = least_loaded_tagged(match.partial)) {
      return te;
    }
  }
  for (auto it = match.path.rbegin(); it != match.path.rend(); ++it) {
    if (Te* te = least_loaded_tagged(*it)) {
      return te;
    }
  }
  *hit = false;
  return least_loaded_tagged(nullptr);
}

}  // namespace deepserve::serving

#endif  // DEEPSERVE_SERVING_PROMPT_TREE_H_
