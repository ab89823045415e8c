// Compressed radix (prefix) tree over symbol sequences.
//
// RTC indexes KV cache by *block keys* — a chain hash per full KV block — so
// every divergence between two prompts lands on a block boundary and edge
// splits never cut a block in half. The same structure, instantiated with a
// different payload, backs the Job Executor's global prompt trees (§5.2): the
// paper notes the TE-local tree "shares an index with its corresponding
// global tree", which here is literal — both are RadixTree<V> over the same
// BlockKey stream, with the same LRU index.
//
// Node children live in a ChildMap: a sorted inline array for the common
// low-fanout case (radix nodes overwhelmingly have a handful of children),
// spilling to a std::map only past kInlineChildren — the root of a global
// prompt tree can fan out to one child per distinct opening block. Both modes
// look up by exact key and iterate in ascending key order.
//
// LRU index. Every non-root node sits on an intrusive doubly-linked list
// ordered by last_access (ties in any order), and the tree keeps its node
// count incrementally, so eviction never walks the tree. The eviction order is
// ascending last_access, ties broken by pre-order position (ascending key
// path) — the order a full depth-first walk with a strict `<` would produce.
// Ties are resolved only when a scan reaches a time bucket holding more than
// one leaf. A touch at a time no earlier than the newest in the tree (the
// simulator's clock only moves forward) is O(1); an earlier time falls back
// to a linear scan from the newest end.
//
// Retirement. A caller may Retire a node it knows a scan will never act on
// again (the RTC retires leaves whose blocks all have a DRAM copy: residency
// in DRAM is permanent, so such a leaf can never become a swap victim). A
// second intrusive list, ordered exactly like the first, holds only the
// non-retired nodes, and a scan over LruList::kActive walks it alone: it hands
// over the same leaves in the same order as a full scan with the retired ones
// filtered out, at a cost that no longer grows with the retired history. The
// mark is permanent, and a split tail inherits it from the node it was cut
// from.
//
// V is the per-node payload covering that node's span. It must be default-
// constructible and provide:
//   V SplitTail(size_t offset)  — split at `offset` symbols into this node's
//                                 span, keep the head in-place, return the
//                                 tail payload for the new child.
#ifndef DEEPSERVE_RTC_RADIX_TREE_H_
#define DEEPSERVE_RTC_RADIX_TREE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace deepserve::rtc {

// Chain hash over token blocks: key(i) = H(key(i-1), tokens in block i).
using BlockKey = uint64_t;

inline BlockKey ChainHash(BlockKey prev, std::span<const TokenId> tokens) {
  uint64_t h = prev * 0x100000001b3ull + 0x9ae16a3b2f90404full;
  for (TokenId t : tokens) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(t));
    h *= 0x100000001b3ull;
  }
  h ^= h >> 29;
  return h;
}

// Converts a token sequence into its full-block key chain (drops the partial
// tail block — only complete blocks are cacheable).
std::vector<BlockKey> TokensToBlockKeys(std::span<const TokenId> tokens, int block_size);

inline std::vector<BlockKey> TokensToBlockKeys(std::span<const TokenId> tokens, int block_size) {
  DS_CHECK_GT(block_size, 0);
  std::vector<BlockKey> keys;
  size_t full = tokens.size() / static_cast<size_t>(block_size);
  keys.reserve(full);
  BlockKey prev = 0;
  for (size_t b = 0; b < full; ++b) {
    prev = ChainHash(prev, tokens.subspan(b * static_cast<size_t>(block_size),
                                          static_cast<size_t>(block_size)));
    keys.push_back(prev);
  }
  return keys;
}

// What a ScanLruLeaves visitor does with the leaf it was handed.
enum class LruStep {
  kNext,    // keep the leaf and move on to the next one
  kRemove,  // remove the leaf (RemoveLeaf) and move on
  kRetire,  // retire the leaf (Retire) and move on
  kStop,    // end the scan
};

// Which time-ordered list a scan walks (see the file comment).
enum class LruList : uint8_t {
  kAll = 0,     // every non-root node
  kActive = 1,  // only the nodes not yet retired
};

template <typename V>
class RadixTree {
 public:
  struct Node;

  // Children of one node, keyed by first edge symbol. Inline-sorted up to
  // kInlineChildren entries (find = short linear scan, insert = memmove of a
  // few 16-byte entries); larger fanouts migrate wholesale to a std::map and
  // stay there. Iteration is ascending by key in both modes.
  class ChildMap {
   public:
    static constexpr size_t kInlineChildren = 8;

    ChildMap() = default;
    ChildMap(ChildMap&&) noexcept = default;
    ChildMap& operator=(ChildMap&&) noexcept = default;
    ChildMap(const ChildMap&) = delete;
    ChildMap& operator=(const ChildMap&) = delete;

    size_t size() const { return spill_ != nullptr ? spill_->size() : inline_count_; }
    bool empty() const { return size() == 0; }

    Node* Find(BlockKey key) const {
      if (spill_ != nullptr) {
        auto it = spill_->find(key);
        return it != spill_->end() ? it->second.get() : nullptr;
      }
      for (size_t i = 0; i < inline_count_; ++i) {
        if (inline_[i].key == key) {
          return inline_[i].node.get();
        }
      }
      return nullptr;
    }

    // Inserts a child under `key` (which must be absent) and returns it.
    Node* Emplace(BlockKey key, std::unique_ptr<Node> child) {
      DS_CHECK(Find(key) == nullptr) << "duplicate child key";
      Node* raw = child.get();
      if (spill_ == nullptr && inline_count_ == kInlineChildren) {
        Spill();
      }
      if (spill_ != nullptr) {
        spill_->emplace(key, std::move(child));
        return raw;
      }
      size_t pos = inline_count_;
      while (pos > 0 && inline_[pos - 1].key > key) {
        inline_[pos] = std::move(inline_[pos - 1]);
        --pos;
      }
      inline_[pos] = Entry{key, std::move(child)};
      ++inline_count_;
      return raw;
    }

    // Detaches and returns the child under `key`; the key must be present.
    std::unique_ptr<Node> Remove(BlockKey key) {
      if (spill_ != nullptr) {
        auto it = spill_->find(key);
        DS_CHECK(it != spill_->end()) << "removing absent child key";
        std::unique_ptr<Node> out = std::move(it->second);
        spill_->erase(it);
        return out;
      }
      for (size_t i = 0; i < inline_count_; ++i) {
        if (inline_[i].key == key) {
          std::unique_ptr<Node> out = std::move(inline_[i].node);
          for (size_t j = i + 1; j < inline_count_; ++j) {
            inline_[j - 1] = std::move(inline_[j]);
          }
          --inline_count_;
          inline_[inline_count_] = Entry{};
          return out;
        }
      }
      DS_CHECK(false) << "removing absent child key";
      return nullptr;
    }

    // Visits (key, child) pairs in ascending key order.
    template <typename Fn>
    void ForEach(const Fn& fn) const {
      if (spill_ != nullptr) {
        for (const auto& [key, child] : *spill_) {
          fn(key, child.get());
        }
        return;
      }
      for (size_t i = 0; i < inline_count_; ++i) {
        fn(inline_[i].key, inline_[i].node.get());
      }
    }

    bool spilled() const { return spill_ != nullptr; }

   private:
    struct Entry {
      BlockKey key = 0;
      std::unique_ptr<Node> node;
    };

    void Spill() {
      spill_ = std::make_unique<std::map<BlockKey, std::unique_ptr<Node>>>();
      for (size_t i = 0; i < inline_count_; ++i) {
        spill_->emplace(inline_[i].key, std::move(inline_[i].node));
        inline_[i] = Entry{};
      }
      inline_count_ = 0;
    }

    std::array<Entry, kInlineChildren> inline_{};
    size_t inline_count_ = 0;
    std::unique_ptr<std::map<BlockKey, std::unique_ptr<Node>>> spill_;
  };

  struct Node {
    std::vector<BlockKey> edge;  // symbols on the edge from the parent
    V value{};                   // payload covering this node's edge span
    Node* parent = nullptr;
    ChildMap children;  // keyed by first edge symbol

    bool is_leaf() const { return children.empty(); }
    // Last Insert/Touch through this node. Written only by the tree, which
    // keeps the LRU index in step with it.
    TimeNs last_access() const { return last_access_; }
    bool retired() const { return retired_; }
    // Depth in symbols from the root to the END of this node's edge.
    size_t depth = 0;

   private:
    friend class RadixTree;
    TimeNs last_access_ = 0;
    bool retired_ = false;
    // Neighbours on each LruList: older (prev) and newer (next). A retired
    // node's kActive links are null.
    std::array<Node*, 2> lru_prev_{};
    std::array<Node*, 2> lru_next_{};
  };

  struct MatchResult {
    size_t matched = 0;               // symbols matched from the root
    std::vector<Node*> path;          // fully-matched nodes, root-most first
    Node* partial = nullptr;          // node matched only partially (if any)
    size_t partial_len = 0;           // symbols matched inside `partial`
  };

  RadixTree() : root_(std::make_unique<Node>()) {}

  // Longest-prefix match; touches nothing.
  MatchResult Match(std::span<const BlockKey> keys) const {
    MatchResult result;
    const Node* node = root_.get();
    size_t pos = 0;
    while (pos < keys.size()) {
      Node* child = node->children.Find(keys[pos]);
      if (child == nullptr) {
        break;
      }
      size_t i = 0;
      while (i < child->edge.size() && pos + i < keys.size() && child->edge[i] == keys[pos + i]) {
        ++i;
      }
      if (i == child->edge.size()) {
        result.path.push_back(child);
        pos += i;
        node = child;
      } else {
        result.partial = child;
        result.partial_len = i;
        pos += i;
        break;
      }
    }
    result.matched = pos;
    return result;
  }

  // Ensures a path spelling exactly `keys` exists, splitting edges as needed.
  // `on_new(node, begin, end)` is called once for every node whose span is
  // newly created, with the [begin, end) symbol range it covers, so the caller
  // can attach payload. Returns the deepest node. Touches every node on the
  // path.
  template <typename OnNew>
  Node* Insert(std::span<const BlockKey> keys, TimeNs now, const OnNew& on_new) {
    Node* node = root_.get();
    size_t pos = 0;
    while (pos < keys.size()) {
      Node* child = node->children.Find(keys[pos]);
      if (child == nullptr) {
        auto fresh = std::make_unique<Node>();
        fresh->edge.assign(keys.begin() + static_cast<ptrdiff_t>(pos), keys.end());
        fresh->parent = node;
        fresh->depth = node->depth + fresh->edge.size();
        fresh->last_access_ = now;
        Node* raw = node->children.Emplace(keys[pos], std::move(fresh));
        ++node_count_;
        LinkByTime(raw);
        on_new(*raw, pos, keys.size());
        return raw;
      }
      size_t i = 0;
      while (i < child->edge.size() && pos + i < keys.size() && child->edge[i] == keys[pos + i]) {
        ++i;
      }
      if (i < child->edge.size()) {
        SplitChild(child, i);
      }
      Touch(child, now);
      pos += i;
      node = child;
    }
    return node;
  }

  Node* Insert(std::span<const BlockKey> keys, TimeNs now) {
    return Insert(keys, now, [](Node&, size_t, size_t) {});
  }

  // Marks every node a Match covered as used at `now`, the partially-matched
  // one included.
  void Touch(const MatchResult& match, TimeNs now) {
    for (Node* node : match.path) {
      Touch(node, now);
    }
    if (match.partial != nullptr) {
      Touch(match.partial, now);
    }
  }

  // Removes a leaf node entirely (merging is skipped: keeps bookkeeping
  // simple and harms nothing but a little pointer depth).
  void RemoveLeaf(Node* node) {
    DS_CHECK(node != nullptr);
    DS_CHECK(node->is_leaf());
    DS_CHECK(node->parent != nullptr) << "cannot remove the root";
    Node* parent = node->parent;
    DS_CHECK_EQ(parent->children.Find(node->edge.front()), node)
        << "child map key does not lead back to the node";
    Unlink(node);
    --node_count_;
    parent->children.Remove(node->edge.front());
  }

  // Takes a non-root node off the kActive list for good (see the file
  // comment). Idempotent.
  void Retire(Node* node) {
    DS_CHECK(node != nullptr && node->parent != nullptr) << "cannot retire the root";
    if (node->retired_) {
      return;
    }
    Unlink(node, LruList::kActive);
    node->retired_ = true;
  }

  // Hands every leaf on `list` to `fn(Node&) -> LruStep` in eviction order
  // (see the file comment) until it returns kStop. On kRemove the leaf is
  // removed, and if that makes its parent a leaf on `list` no newer than the
  // time bucket being scanned, the parent is handed over next, at the removed
  // leaf's rank — exactly where a fresh scan would find it. On kRetire the
  // leaf is retired. `fn` must not modify the tree itself, and must leave
  // every leaf it has passed over no more eligible than it was: the scan never
  // revisits a leaf, so a visitor that picks eligible leaves sees the same
  // sequence as repeated FindLruLeaf calls.
  template <typename Fn>
  void ScanLruLeaves(const Fn& fn, LruList list = LruList::kAll) {
    const size_t l = static_cast<size_t>(list);
    std::vector<Node*> ties;
    Node* cursor = lru_head_[l];
    while (cursor != nullptr) {
      TimeNs bucket = cursor->last_access_;
      Node* first_leaf = nullptr;
      ties.clear();
      // Nodes newer than this bucket are never removed while it is visited,
      // so `cursor` stays valid.
      for (; cursor != nullptr && cursor->last_access_ == bucket; cursor = cursor->lru_next_[l]) {
        if (!cursor->is_leaf()) {
          continue;
        }
        if (first_leaf == nullptr) {
          first_leaf = cursor;
          continue;
        }
        if (ties.empty()) {
          ties.push_back(first_leaf);
        }
        ties.push_back(cursor);
      }
      if (ties.empty()) {
        if (first_leaf != nullptr && !VisitLeaf(first_leaf, bucket, list, fn)) {
          return;
        }
        continue;
      }
      std::sort(ties.begin(), ties.end(), PreorderLess);
      for (Node* leaf : ties) {
        if (!VisitLeaf(leaf, bucket, list, fn)) {
          return;
        }
      }
    }
  }

  // Least-recently-used leaf for which `evictable` holds; nullptr if none.
  template <typename Pred>
  Node* FindLruLeaf(const Pred& evictable) {
    Node* found = nullptr;
    ScanLruLeaves([&](Node& leaf) {
      if (!evictable(static_cast<const Node&>(leaf))) {
        return LruStep::kNext;
      }
      found = &leaf;
      return LruStep::kStop;
    });
    return found;
  }

  // Pre-order traversal over all non-root nodes.
  template <typename Fn>
  void Visit(const Fn& fn) {
    VisitSubtree(root_.get(), fn);
  }

  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  // Non-root nodes currently in the tree.
  size_t NodeCount() const { return node_count_; }

 private:
  // Marks a non-root node as used at `now`.
  void Touch(Node* node, TimeNs now) {
    if (node->last_access_ == now) {
      return;  // already in its time bucket; order within a bucket is free
    }
    Unlink(node);
    node->last_access_ = now;
    LinkByTime(node);
  }

  // Hands `leaf` to `fn`, then each ancestor on `list` its removals expose
  // (see ScanLruLeaves). Returns false once `fn` asks to stop.
  template <typename Fn>
  bool VisitLeaf(Node* leaf, TimeNs bucket, LruList list, const Fn& fn) {
    while (leaf != nullptr) {
      LruStep step = fn(*leaf);
      if (step == LruStep::kStop) {
        return false;
      }
      if (step == LruStep::kNext) {
        return true;
      }
      if (step == LruStep::kRetire) {
        Retire(leaf);
        return true;
      }
      Node* parent = leaf->parent;
      RemoveLeaf(leaf);
      bool exposed = parent != root_.get() && parent->is_leaf() &&
                     parent->last_access_ <= bucket &&
                     (list == LruList::kAll || !parent->retired_);
      leaf = exposed ? parent : nullptr;
    }
    return true;
  }

  // Pre-order comparison of two distinct leaves: below their lowest common
  // ancestor, the branch with the smaller first edge symbol comes first.
  static bool PreorderLess(const Node* a, const Node* b) {
    const Node* a_branch = a;
    const Node* b_branch = b;
    // `depth` grows strictly downwards, so the deeper of two distinct nodes
    // is never an ancestor of the other and can safely be lifted.
    while (a != b) {
      if (a->depth >= b->depth) {
        a_branch = a;
        a = a->parent;
      } else {
        b_branch = b;
        b = b->parent;
      }
    }
    return a_branch->edge.front() < b_branch->edge.front();
  }

  void SplitChild(Node* child, size_t offset) {
    DS_CHECK_GT(offset, 0u);
    DS_CHECK_LT(offset, child->edge.size());
    auto tail = std::make_unique<Node>();
    tail->edge.assign(child->edge.begin() + static_cast<ptrdiff_t>(offset), child->edge.end());
    tail->value = child->value.SplitTail(offset);
    tail->last_access_ = child->last_access_;
    tail->retired_ = child->retired_;
    tail->children = std::move(child->children);
    tail->depth = child->depth;
    tail->children.ForEach([&](BlockKey, Node* grandchild) { grandchild->parent = tail.get(); });
    child->edge.resize(offset);
    child->depth = child->depth - tail->edge.size();
    child->children = ChildMap{};
    tail->parent = child;
    // Same time bucket (and lists) as the head it was cut from.
    LinkAfter(child, tail.get(), LruList::kAll);
    if (!tail->retired_) {
      LinkAfter(child, tail.get(), LruList::kActive);
    }
    ++node_count_;
    BlockKey tail_first = tail->edge.front();
    child->children.Emplace(tail_first, std::move(tail));
  }

  template <typename Fn>
  void VisitSubtree(Node* node, const Fn& fn) {
    node->children.ForEach([&](BlockKey, Node* child) {
      fn(child);
      VisitSubtree(child, fn);
    });
  }

  // Links `node` into each list it belongs to, after the newest node there
  // no newer than it.
  void LinkByTime(Node* node) {
    LinkByTime(node, LruList::kAll);
    if (!node->retired_) {
      LinkByTime(node, LruList::kActive);
    }
  }

  void LinkByTime(Node* node, LruList list) {
    const size_t l = static_cast<size_t>(list);
    Node* after = lru_tail_[l];
    while (after != nullptr && after->last_access_ > node->last_access_) {
      after = after->lru_prev_[l];
    }
    LinkAfter(after, node, list);
  }

  // Links `node` right after `after` on `list` (at the head when `after` is
  // null).
  void LinkAfter(Node* after, Node* node, LruList list) {
    const size_t l = static_cast<size_t>(list);
    Node* next = after != nullptr ? after->lru_next_[l] : lru_head_[l];
    node->lru_prev_[l] = after;
    node->lru_next_[l] = next;
    (after != nullptr ? after->lru_next_[l] : lru_head_[l]) = node;
    (next != nullptr ? next->lru_prev_[l] : lru_tail_[l]) = node;
  }

  // Unlinks `node` from every list it is on.
  void Unlink(Node* node) {
    Unlink(node, LruList::kAll);
    if (!node->retired_) {
      Unlink(node, LruList::kActive);
    }
  }

  void Unlink(Node* node, LruList list) {
    const size_t l = static_cast<size_t>(list);
    Node* prev = node->lru_prev_[l];
    Node* next = node->lru_next_[l];
    (prev != nullptr ? prev->lru_next_[l] : lru_head_[l]) = next;
    (next != nullptr ? next->lru_prev_[l] : lru_tail_[l]) = prev;
    node->lru_prev_[l] = nullptr;
    node->lru_next_[l] = nullptr;
  }

  std::unique_ptr<Node> root_;
  size_t node_count_ = 0;
  std::array<Node*, 2> lru_head_{};  // oldest on each LruList
  std::array<Node*, 2> lru_tail_{};  // newest on each LruList
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RADIX_TREE_H_
