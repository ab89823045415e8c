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
// Edges. A node's edge is an Edge: a slice of the KeyChain of the prompt
// whose Insert created the node, never a copy of its keys. A split re-slices
// that chain for the tail and truncates the head, so both trees that index a
// request (the JE's prompt tree and a TE's RTC tree) point into the one chain
// the JE hashed, and each chain lives exactly as long as some node slices it.
//
// Node children live out of line in a ChildMap: a sorted vector for the
// common low-fanout case (radix nodes overwhelmingly have a handful of
// children, and most nodes are leaves with none, which allocate nothing),
// spilling to a hash table only past kMaxSortedChildren — a shared prefix's
// node in a global prompt tree fans out to one child per request that
// diverges there, and a Match must not pay a search tree's depth of cache
// misses at it. Both modes look up by exact key; only the sorted mode
// iterates in key order, and nothing that decides an output iterates
// children (the eviction order reads no key, see below).
//
// LRU index. Every non-root node sits on an intrusive doubly-linked list
// ordered by last_access (ties in any order), and the tree keeps its node
// count incrementally, so eviction never walks the tree. The eviction order is
// ascending last_access, ties broken by insertion rank: a per-tree counter
// that Insert hands each node it creates, and that a split tail inherits from
// the head it was cut from. Nodes sharing a rank all lie on one path, so no
// two leaves share one, and the order never depends on the key values.
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
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace deepserve::rtc {

// Chain hash over token blocks: key(i) = ChainHash(key(i-1), block i), with
// key(-1) = 0.
using BlockKey = uint64_t;

// Tokens per KV block: the one block size of every cache and prompt tree, so
// the JE's prompt-tree keys and each TE's RTC keys are one index (§5.2).
inline constexpr int kBlockTokens = 16;

// The folded 64x64 -> 128-bit product: the mixing step of ChainHash.
inline uint64_t MulFold(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^ static_cast<uint64_t>(product >> 64);
}

// A block's 16 tokens are eight 64-bit words (two tokens each, in memory
// order). Four independent multiplies fold them, so they overlap in the
// pipeline; only the last multiply, which mixes in `prev`, is on the chain's
// critical path.
inline BlockKey ChainHash(BlockKey prev, std::span<const TokenId, kBlockTokens> block) {
  static constexpr uint64_t kSecret[10] = {
      0xa0761d6478bd642full, 0xe7037ed1a0b428dbull, 0x8ebc6af09c88c6e3ull,
      0x589965cc75374cc3ull, 0x1d8e4e27c47d124full, 0x9ae16a3b2f90404full,
      0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull, 0xd6e8feb86659fd93ull,
      0xff51afd7ed558ccdull};
  uint64_t w[8];
  static_assert(sizeof(w) == kBlockTokens * sizeof(TokenId), "a block is eight words");
  std::memcpy(w, block.data(), sizeof(w));
  const uint64_t lanes = MulFold(w[0] ^ kSecret[0], w[1] ^ kSecret[1]) +
                         MulFold(w[2] ^ kSecret[2], w[3] ^ kSecret[3]) +
                         MulFold(w[4] ^ kSecret[4], w[5] ^ kSecret[5]) +
                         MulFold(w[6] ^ kSecret[6], w[7] ^ kSecret[7]);
  return MulFold(lanes ^ kSecret[8], prev ^ kSecret[9]);
}

// The `b`-th full block of `tokens`.
inline std::span<const TokenId, kBlockTokens> Block(std::span<const TokenId> tokens, size_t b) {
  return std::span<const TokenId, kBlockTokens>(tokens.data() + b * kBlockTokens, kBlockTokens);
}

// Writes the full-block key chain of `tokens` to `out`, which must have room
// for tokens.size() / kBlockTokens keys (the partial tail block is dropped —
// only complete blocks are cacheable).
inline void HashBlocks(std::span<const TokenId> tokens, BlockKey* out) {
  BlockKey prev = 0;
  for (size_t b = 0; b < tokens.size() / kBlockTokens; ++b) {
    prev = ChainHash(prev, Block(tokens, b));
    out[b] = prev;
  }
}

// Converts a token sequence into its full-block key chain.
inline std::vector<BlockKey> TokensToBlockKeys(std::span<const TokenId> tokens) {
  std::vector<BlockKey> keys(tokens.size() / kBlockTokens);
  HashBlocks(tokens, keys.data());
  return keys;
}

// A run of keys inside one KeyChain: a radix-tree node's edge. It holds an
// aliasing pointer to its first key, which keeps the whole chain alive, and a
// length, so cutting an edge in two re-slices the chain and copies no key.
class Edge {
 public:
  Edge() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const BlockKey& operator[](size_t i) const { return keys_.get()[i]; }
  const BlockKey& front() const { return keys_.get()[0]; }
  const BlockKey& back() const { return keys_.get()[size_ - 1]; }
  const BlockKey* begin() const { return keys_.get(); }
  const BlockKey* end() const { return keys_.get() + size_; }

  // The keys from `offset` on, in the same chain.
  Edge Suffix(size_t offset) const {
    DS_CHECK_LE(offset, size());
    return Edge(std::shared_ptr<const BlockKey>(keys_, keys_.get() + offset), size() - offset);
  }
  // Keeps only the first `len` keys.
  void Truncate(size_t len) {
    DS_CHECK_LE(len, size());
    size_ = static_cast<uint32_t>(len);
  }
  // Expires once nothing holds the chain this edge slices any more.
  std::weak_ptr<const void> Watch() const { return keys_; }

 private:
  friend class KeyChain;

  Edge(std::shared_ptr<const BlockKey> keys, size_t size)
      : keys_(std::move(keys)), size_(static_cast<uint32_t>(size)) {}

  std::shared_ptr<const BlockKey> keys_;
  uint32_t size_ = 0;
};
static_assert(sizeof(Edge) == 24, "an edge is as small as the vector header it replaced");

// One prompt's block-key chain, hashed once and shared read-only by every
// layer that keys on it: the JE's prompt tree, then the RTC match and cache
// commit of each TE the request runs on. Every radix-tree node a prompt
// creates slices this chain (Edge), so the chain outlives the request for as
// long as any such node does (DESIGN #14).
class KeyChain {
 public:
  KeyChain() = default;

  static KeyChain Hash(std::span<const TokenId> tokens) {
    const size_t full = tokens.size() / kBlockTokens;
    auto keys = std::make_shared_for_overwrite<BlockKey[]>(full);
    HashBlocks(tokens, keys.get());
    return KeyChain(std::move(keys), full);
  }
  // A chain over keys that were not hashed from tokens here (tests and
  // benches that build key sequences directly).
  static KeyChain Of(std::span<const BlockKey> keys) {
    auto copy = std::make_shared_for_overwrite<BlockKey[]>(keys.size());
    std::copy(keys.begin(), keys.end(), copy.get());
    return KeyChain(std::move(copy), keys.size());
  }

  // False only for a default-constructed handle, which holds no chain at all
  // (a prompt shorter than one block still hashes to an empty chain).
  bool hashed() const { return keys_ != nullptr; }
  size_t size() const { return size_; }
  std::span<const BlockKey> span() const { return {keys_.get(), size_}; }
  // The keys from `pos` on, as an edge that shares this chain.
  Edge Slice(size_t pos) const {
    DS_CHECK_LE(pos, static_cast<size_t>(size_));
    return Edge(std::shared_ptr<const BlockKey>(keys_, keys_.get() + pos), size_ - pos);
  }
  // Whether both handles refer to one hashed chain.
  bool SharesStorage(const KeyChain& other) const { return keys_ == other.keys_; }
  // Expires once neither a handle nor a tree edge holds this chain any more.
  std::weak_ptr<const void> Watch() const { return keys_; }

 private:
  KeyChain(std::shared_ptr<const BlockKey[]> keys, size_t size)
      : keys_(std::move(keys)), size_(static_cast<uint32_t>(size)) {
    DS_CHECK_LE(size, static_cast<size_t>(UINT32_MAX));
  }

  std::shared_ptr<const BlockKey[]> keys_;
  uint32_t size_ = 0;
};

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

  // Children of one node, keyed by first edge symbol. A sorted vector up to
  // kMaxSortedChildren entries (find = short linear scan, insert = memmove of
  // a few 16-byte entries) that allocates only once the node has a child, so
  // a leaf pays for none; larger fanouts migrate wholesale to a hash table
  // and stay there. Block keys are already uniform hashes, so the table
  // hashes them as they are.
  class ChildMap {
   public:
    static constexpr size_t kMaxSortedChildren = 8;

    ChildMap() = default;
    ChildMap(ChildMap&&) noexcept = default;
    ChildMap& operator=(ChildMap&&) noexcept = default;
    ChildMap(const ChildMap&) = delete;
    ChildMap& operator=(const ChildMap&) = delete;

    size_t size() const { return spill_ != nullptr ? spill_->size() : sorted_.size(); }
    bool empty() const { return size() == 0; }

    Node* Find(BlockKey key) const {
      if (spill_ != nullptr) {
        auto it = spill_->find(key);
        return it != spill_->end() ? it->second.get() : nullptr;
      }
      for (const Entry& entry : sorted_) {
        if (entry.key == key) {
          return entry.node.get();
        }
      }
      return nullptr;
    }

    // Inserts a child under `key` (which must be absent) and returns it.
    Node* Emplace(BlockKey key, std::unique_ptr<Node> child) {
      DS_CHECK(Find(key) == nullptr) << "duplicate child key";
      Node* raw = child.get();
      if (spill_ == nullptr && sorted_.size() == kMaxSortedChildren) {
        Spill();
      }
      if (spill_ != nullptr) {
        spill_->emplace(key, std::move(child));
        return raw;
      }
      auto pos = std::find_if(sorted_.begin(), sorted_.end(),
                              [key](const Entry& entry) { return entry.key > key; });
      sorted_.insert(pos, Entry{key, std::move(child)});
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
      auto it = std::find_if(sorted_.begin(), sorted_.end(),
                             [key](const Entry& entry) { return entry.key == key; });
      DS_CHECK(it != sorted_.end()) << "removing absent child key";
      std::unique_ptr<Node> out = std::move(it->node);
      sorted_.erase(it);
      if (sorted_.empty()) {
        sorted_ = std::vector<Entry>();  // a node that became a leaf keeps no buffer
      }
      return out;
    }

    // Visits every (key, child) pair: in ascending key order while sorted,
    // in the table's order once spilled.
    template <typename Fn>
    void ForEach(const Fn& fn) const {
      if (spill_ != nullptr) {
        for (const auto& [key, child] : *spill_) {
          fn(key, child.get());
        }
        return;
      }
      for (const Entry& entry : sorted_) {
        fn(entry.key, entry.node.get());
      }
    }

    bool spilled() const { return spill_ != nullptr; }

    // One child in sorted mode: what a node's first child costs its parent.
    struct Entry {
      BlockKey key = 0;
      std::unique_ptr<Node> node;
    };

   private:
    void Spill() {
      spill_ = std::make_unique<Spilled>();
      for (Entry& entry : sorted_) {
        spill_->emplace(entry.key, std::move(entry.node));
      }
      sorted_ = std::vector<Entry>();
    }

    using Spilled = std::unordered_map<BlockKey, std::unique_ptr<Node>>;
    std::vector<Entry> sorted_;
    std::unique_ptr<Spilled> spill_;
  };

  struct Node {
    Edge edge;  // symbols on the edge from the parent, a slice of a KeyChain
    V value{};  // payload covering this node's edge span
    Node* parent = nullptr;
    ChildMap children;  // keyed by first edge symbol

    bool is_leaf() const { return children.empty(); }
    // Last Insert/Touch through this node. Written only by the tree, which
    // keeps the LRU index in step with it.
    TimeNs last_access() const { return last_access_; }
    bool retired() const { return retired_; }
    // Insertion rank: breaks last_access ties in the eviction order.
    uint32_t rank() const { return rank_; }
    // Depth in symbols from the root to the END of this node's edge.
    size_t depth = 0;

   private:
    friend class RadixTree;
    TimeNs last_access_ = 0;
    bool retired_ = false;
    uint32_t rank_ = 0;  // in the padding after retired_
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
    Match(keys, &result);
    return result;
  }

  // The same match into a caller-owned result, whose path buffer is reused.
  void Match(std::span<const BlockKey> keys, MatchResult* out) const {
    MatchResult& result = *out;
    result.path.clear();
    result.partial = nullptr;
    result.partial_len = 0;
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
  }

  // Ensures a path spelling exactly `chain` exists, splitting edges as
  // needed; a new node's edge slices `chain`. `on_new(node, begin, end)` is
  // called once for every node whose span is newly created, with the
  // [begin, end) symbol range it covers, so the caller can attach payload.
  // Returns the deepest node. Touches every node on the path.
  template <typename OnNew>
  Node* Insert(const KeyChain& chain, TimeNs now, const OnNew& on_new) {
    const std::span<const BlockKey> keys = chain.span();
    Node* node = root_.get();
    size_t pos = 0;
    while (pos < keys.size()) {
      Node* child = node->children.Find(keys[pos]);
      if (child == nullptr) {
        auto fresh = std::make_unique<Node>();
        fresh->edge = chain.Slice(pos);
        fresh->parent = node;
        fresh->depth = node->depth + fresh->edge.size();
        fresh->last_access_ = now;
        DS_CHECK_LT(next_rank_, UINT32_MAX) << "insertion rank overflow";
        fresh->rank_ = next_rank_++;
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

  Node* Insert(const KeyChain& chain, TimeNs now) {
    return Insert(chain, now, [](Node&, size_t, size_t) {});
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
  // time bucket being scanned, the parent is handed over next: a parent's
  // rank is never above its child's, so a fresh scan would find it ahead of
  // every leaf this one has yet to reach. On kRetire the leaf is retired.
  // `fn` must not modify the tree itself, and must leave every leaf it has
  // passed over no more eligible than it was: the scan never revisits a leaf,
  // so a visitor that picks eligible leaves sees the same sequence as
  // repeated FindLruLeaf calls.
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
      std::sort(ties.begin(), ties.end(),
                [](const Node* a, const Node* b) { return a->rank_ < b->rank_; });
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

  // Pre-order traversal over all non-root nodes (siblings in ChildMap order).
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

  void SplitChild(Node* child, size_t offset) {
    DS_CHECK_GT(offset, 0u);
    DS_CHECK_LT(offset, child->edge.size());
    auto tail = std::make_unique<Node>();
    tail->edge = child->edge.Suffix(offset);
    tail->value = child->value.SplitTail(offset);
    tail->last_access_ = child->last_access_;
    tail->retired_ = child->retired_;
    tail->rank_ = child->rank_;
    tail->children = std::move(child->children);
    tail->depth = child->depth;
    tail->children.ForEach([&](BlockKey, Node* grandchild) { grandchild->parent = tail.get(); });
    child->edge.Truncate(offset);
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
  uint32_t next_rank_ = 0;  // the rank of the next node Insert creates
  std::array<Node*, 2> lru_head_{};  // oldest on each LruList
  std::array<Node*, 2> lru_tail_{};  // newest on each LruList
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RADIX_TREE_H_
