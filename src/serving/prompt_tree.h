// The Job Executor's global prompt trees (§5.2) and the locality-aware pick
// over them (the paper's select_tes_prefix_match).
//
// A prompt tree is a RadixTree over the same block-key chains the TE-local
// RTC trees use. Every node carries the ids of the TEs a prompt through it
// was routed to, so the deepest node on a request's match path tagged with a
// TE is how long a prefix that TE has preserved.
#ifndef DEEPSERVE_SERVING_PROMPT_TREE_H_
#define DEEPSERVE_SERVING_PROMPT_TREE_H_

#include <algorithm>
#include <vector>

#include "rtc/radix_tree.h"
#include "workload/job.h"

namespace deepserve::serving {

// Node payload: the TEs tagged on this span, sorted and distinct. A split
// copies the tags to both halves (both spans were routed to the same TEs).
struct TePresence {
  std::vector<workload::TeId> tes;

  void Add(workload::TeId te) {
    auto it = std::lower_bound(tes.begin(), tes.end(), te);
    if (it == tes.end() || *it != te) {
      tes.insert(it, te);
    }
  }
  bool Has(workload::TeId te) const { return std::binary_search(tes.begin(), tes.end(), te); }
  TePresence SplitTail(size_t) { return *this; }
};

using PromptTree = rtc::RadixTree<TePresence>;
static_assert(sizeof(PromptTree::Node) <= 144,
              "a prompt-tree node keeps its edge and children out of line");

// The locality-aware pick: among `tes`, the candidate with the longest
// preserved prefix of `match`, ties to the lowest queue_depth() and then to
// the earliest in `tes`; with no candidate tagged anywhere on the match, the
// plain least-loaded one. `*hit` reports whether a tagged candidate won.
//
// Depth grows strictly along a match (the partially matched node, if any, is
// deepest), so the deepest node carrying any candidate's tag holds exactly
// the candidates at the maximum preserved depth. The walk stops there: its
// cost does not depend on how many tags the shallower nodes have collected.
// `Te` provides id() and queue_depth(); `tes` must be non-empty.
template <typename Te>
Te* LocalityPick(const PromptTree::MatchResult& match, const std::vector<Te*>& tes, bool* hit) {
  // Least-loaded candidate tagged on `node` (any candidate when null).
  auto least_loaded_tagged = [&tes](const PromptTree::Node* node) {
    Te* best = nullptr;
    for (Te* te : tes) {
      if ((node == nullptr || node->value.Has(te->id())) &&
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
