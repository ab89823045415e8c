// RadixTree property tests against a naive reference model.
//
// The reference for Match is the *coverage set*: every prefix of every
// root-to-node string the tree currently stores. Match(q) must return the
// longest prefix of q in that set — true whether the match ends on a node
// boundary or partway through a compressed edge, and it stays true across
// edge splits and leaf evictions. Structural invariants (edge keys, depth
// bookkeeping, parent pointers, compression) are re-audited after every
// mutation. Every insert goes through a fresh KeyChain that the test drops at
// once, so only the tree's edges keep it alive; the lifetime tests check that
// they keep it exactly as long as they are in the tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "rtc/radix_tree.h"
#include "serving/heatmap.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"
#include "workload/tracegen.h"

namespace deepserve::rtc {
namespace {

// Minimal payload satisfying the SplitTail contract.
struct Span {
  Span SplitTail(size_t) { return Span{}; }
};

using Tree = RadixTree<Span>;
using Key = BlockKey;
using Seq = std::vector<Key>;

// Coverage-set reference: longest prefix of `q` present in `coverage`.
size_t NaiveMatch(const std::set<Seq>& coverage, const Seq& q) {
  for (size_t len = q.size(); len > 0; --len) {
    if (coverage.count(Seq(q.begin(), q.begin() + static_cast<ptrdiff_t>(len))) > 0) {
      return len;
    }
  }
  return 0;
}

void AddCoverage(std::set<Seq>* coverage, const Seq& seq) {
  for (size_t len = 1; len <= seq.size(); ++len) {
    coverage->insert(Seq(seq.begin(), seq.begin() + static_cast<ptrdiff_t>(len)));
  }
}

// The full root-to-end string of `node`.
Seq FullString(const Tree::Node* node) {
  std::vector<const Tree::Node*> chain;
  for (const Tree::Node* n = node; n != nullptr && n->parent != nullptr; n = n->parent) {
    chain.push_back(n);
  }
  Seq out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out.insert(out.end(), (*it)->edge.begin(), (*it)->edge.end());
  }
  return out;
}

// Random sequence over a tiny alphabet so prefixes collide and force splits.
Seq RandomSeq(Rng& rng, size_t max_len) {
  Seq seq(static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(max_len))));
  for (Key& k : seq) {
    k = static_cast<Key>(rng.UniformInt(1, 5));
  }
  return seq;
}

void AuditStructure(Tree& tree) {
  tree.Visit([&](Tree::Node* node) {
    ASSERT_FALSE(node->edge.empty()) << "non-root node with empty edge";
    ASSERT_NE(node->parent, nullptr);
    // The child is keyed by its first edge symbol in the parent's map.
    Tree::Node* found = node->parent->children.Find(node->edge.front());
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, node) << "child map key does not lead back to the node";
    // Depth bookkeeping survives splits.
    EXPECT_EQ(node->depth, node->parent->depth + node->edge.size());
    node->children.ForEach([&](Key key, Tree::Node* child) {
      EXPECT_EQ(child->parent, node);
      EXPECT_EQ(key, child->edge.front());
    });
  });
}

TEST(RadixPropertyTest, MatchAgreesWithNaiveReferenceUnderRandomInserts) {
  for (uint64_t seed : {3ull, 17ull, 91ull}) {
    Rng rng(seed);
    Tree tree;
    std::set<Seq> coverage;
    std::vector<Seq> inserted;
    for (int round = 0; round < 200; ++round) {
      Seq seq = RandomSeq(rng, 12);
      tree.Insert(KeyChain::Of(seq), /*now=*/round);
      AddCoverage(&coverage, seq);
      inserted.push_back(seq);
      AuditStructure(tree);

      // An inserted sequence always fully matches.
      EXPECT_EQ(tree.Match(seq).matched, seq.size()) << "seed " << seed;
      // Random probes agree with the reference, including partial-edge hits.
      for (int probe = 0; probe < 10; ++probe) {
        Seq q = RandomSeq(rng, 14);
        EXPECT_EQ(tree.Match(q).matched, NaiveMatch(coverage, q))
            << "seed " << seed << " round " << round;
      }
      // A previously inserted sequence stays fully matched (splits must not
      // lose coverage).
      const Seq& old = inserted[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inserted.size()) - 1))];
      EXPECT_EQ(tree.Match(old).matched, old.size()) << "seed " << seed;
    }
  }
}

TEST(RadixPropertyTest, MatchResultPathIsConsistent) {
  Rng rng(7);
  Tree tree;
  for (int round = 0; round < 100; ++round) {
    tree.Insert(KeyChain::Of(RandomSeq(rng, 10)), round);
  }
  for (int probe = 0; probe < 200; ++probe) {
    Seq q = RandomSeq(rng, 12);
    Tree::MatchResult m = tree.Match(q);
    ASSERT_LE(m.matched, q.size());
    // Fully-matched path nodes chain root-most first and sum to the match
    // minus any partial tail.
    size_t covered = 0;
    const Tree::Node* prev = nullptr;
    for (const Tree::Node* node : m.path) {
      covered += node->edge.size();
      if (prev != nullptr) {
        EXPECT_EQ(node->parent, prev);
      }
      prev = node;
    }
    if (m.partial != nullptr) {
      EXPECT_GT(m.partial_len, 0u);
      EXPECT_LT(m.partial_len, m.partial->edge.size());
      covered += m.partial_len;
    }
    EXPECT_EQ(covered, m.matched);
    // The matched symbols really are a prefix of q spelled by the tree.
    if (!m.path.empty() || m.partial != nullptr) {
      const Tree::Node* deepest = m.partial != nullptr ? m.partial : m.path.back();
      Seq spelled = FullString(deepest);
      spelled.resize(m.matched);
      EXPECT_TRUE(std::equal(spelled.begin(), spelled.end(), q.begin()));
    }
  }
}

TEST(RadixPropertyTest, LruEvictionKeepsMatchConsistent) {
  for (uint64_t seed : {5ull, 23ull}) {
    Rng rng(seed);
    Tree tree;
    std::set<Seq> coverage;
    TimeNs now = 0;
    for (int round = 0; round < 150; ++round) {
      ++now;
      if (round < 30 || rng.NextDouble() < 0.6) {
        Seq seq = RandomSeq(rng, 10);
        tree.Insert(KeyChain::Of(seq), now);
        AddCoverage(&coverage, seq);
      } else {
        // Evict the least-recently-used leaf, mirroring in the reference:
        // the leaf's exclusive span (strings longer than its parent's depth
        // along its full string) disappears.
        Tree::Node* leaf = tree.FindLruLeaf([](const Tree::Node&) { return true; });
        if (leaf == nullptr) {
          continue;
        }
        // FindLruLeaf returns a minimal-last_access leaf.
        tree.Visit([&](Tree::Node* node) {
          if (node->is_leaf()) {
            EXPECT_LE(leaf->last_access(), node->last_access());
          }
        });
        Seq full = FullString(leaf);
        size_t keep = leaf->parent->depth;
        for (size_t len = keep + 1; len <= full.size(); ++len) {
          coverage.erase(Seq(full.begin(), full.begin() + static_cast<ptrdiff_t>(len)));
        }
        tree.RemoveLeaf(leaf);
      }
      AuditStructure(tree);
      for (int probe = 0; probe < 8; ++probe) {
        Seq q = RandomSeq(rng, 12);
        EXPECT_EQ(tree.Match(q).matched, NaiveMatch(coverage, q))
            << "seed " << seed << " round " << round;
      }
    }
  }
}

// Insertion-rank reference: every string the tree covers (each prefix of a
// stored root-to-node string), numbered by the insert that added it, counting
// only inserts that added any. A node's rank is its full string's number: an
// insert adds new strings only by creating one node, a split leaves the
// covered strings alone, and a removed leaf takes its own span's strings with
// it. The model never looks at the tree's own ranks.
class RankModel {
 public:
  void Insert(const Seq& seq) {
    bool added = false;
    for (size_t len = 1; len <= seq.size(); ++len) {
      added |= rank_.emplace(Seq(seq.begin(), seq.begin() + static_cast<ptrdiff_t>(len)), next_)
                   .second;
    }
    next_ += added ? 1 : 0;
  }
  // Call before the tree removes `leaf`.
  void Remove(const Tree::Node* leaf) {
    Seq full = FullString(leaf);
    for (size_t len = leaf->parent->depth + 1; len <= full.size(); ++len) {
      rank_.erase(Seq(full.begin(), full.begin() + static_cast<ptrdiff_t>(len)));
    }
  }
  uint64_t Of(const Tree::Node* node) const { return rank_.at(FullString(node)); }

 private:
  std::map<Seq, uint64_t> rank_;
  uint64_t next_ = 0;
};

// Reference eviction order: every leaf, sorted by last_access and then by
// the model's insertion rank, which no two leaves share.
std::vector<Tree::Node*> ReferenceLruOrder(Tree& tree, const RankModel& model) {
  std::vector<Tree::Node*> leaves;
  tree.Visit([&](Tree::Node* node) {
    if (node->is_leaf()) {
      leaves.push_back(node);
    }
  });
  std::sort(leaves.begin(), leaves.end(), [&model](const Tree::Node* a, const Tree::Node* b) {
    if (a->last_access() != b->last_access()) {
      return a->last_access() < b->last_access();
    }
    EXPECT_NE(model.Of(a), model.Of(b)) << "two leaves share an insertion rank";
    return model.Of(a) < model.Of(b);
  });
  return leaves;
}

std::vector<Tree::Node*> ScannedLruOrder(Tree& tree, LruList list = LruList::kAll) {
  std::vector<Tree::Node*> leaves;
  tree.ScanLruLeaves(
      [&](Tree::Node& leaf) {
        leaves.push_back(&leaf);
        return LruStep::kNext;
      },
      list);
  return leaves;
}

size_t WalkedNodeCount(Tree& tree) {
  size_t n = 0;
  tree.Visit([&](Tree::Node*) { ++n; });
  return n;
}

// A fixed per-node eligibility, so acting on one leaf never changes another's.
bool Eligible(const Tree::Node& node) { return node.edge.back() % 3 != 0; }

TEST(RadixPropertyTest, LruIndexMatchesInsertionRankReferenceUnderTiesAndOutOfOrderTouches) {
  for (uint64_t seed : {2ull, 11ull, 29ull, 71ull}) {
    Rng rng(seed);
    Tree tree;
    RankModel model;
    for (int round = 0; round < 400; ++round) {
      // A narrow time range makes ties common and touches often move a node
      // backwards in time.
      TimeNs now = rng.UniformInt(0, 12);
      double op = rng.NextDouble();
      if (round < 40 || op < 0.45) {
        Seq seq = RandomSeq(rng, 10);
        tree.Insert(KeyChain::Of(seq), now);
        model.Insert(seq);
      } else if (op < 0.7) {
        auto match = tree.Match(RandomSeq(rng, 10));
        tree.Touch(match, now);
      } else if (op < 0.85) {
        Tree::Node* leaf = tree.FindLruLeaf(Eligible);
        std::vector<Tree::Node*> reference = ReferenceLruOrder(tree, model);
        auto first = std::find_if(reference.begin(), reference.end(),
                                  [](const Tree::Node* n) { return Eligible(*n); });
        ASSERT_EQ(leaf, first == reference.end() ? nullptr : *first) << "seed " << seed;
        if (leaf != nullptr) {
          model.Remove(leaf);
          tree.RemoveLeaf(leaf);
        }
      } else {
        // Evict a few leaves in one scan; parents the scan exposes are
        // handed over too.
        int budget = static_cast<int>(rng.UniformInt(1, 4));
        tree.ScanLruLeaves([&](Tree::Node& leaf) {
          if (budget-- <= 0) {
            return LruStep::kStop;
          }
          model.Remove(&leaf);
          return LruStep::kRemove;
        });
      }
      ASSERT_EQ(tree.NodeCount(), WalkedNodeCount(tree)) << "seed " << seed << " round " << round;
      ASSERT_EQ(ScannedLruOrder(tree), ReferenceLruOrder(tree, model))
          << "seed " << seed << " round " << round;
      AuditStructure(tree);
    }
  }
}

// The eviction order never reads a key value: the same operations on a twin
// tree whose every key is XORed with a constant scan the same nodes in the
// same order, on both lists, through ties, out-of-order touches, retirements
// and removals.
TEST(RadixPropertyTest, ScanOrderIsBlindToKeyValues) {
  constexpr Key kFlip = 0x6;  // permutes the alphabet 1..5 and its order
  auto flip = [](Seq seq) {
    for (Key& k : seq) {
      k ^= kFlip;
    }
    return seq;
  };
  // The scan order of `tree`, as full strings passed through `map`.
  auto order = [](Tree& tree, LruList list, const auto& map) {
    std::vector<Seq> out;
    for (const Tree::Node* node : ScannedLruOrder(tree, list)) {
      out.push_back(map(FullString(node)));
    }
    return out;
  };
  auto same = [](Seq seq) { return seq; };
  for (uint64_t seed : {1ull, 9ull, 33ull, 58ull}) {
    Rng rng(seed);
    Tree plain;
    Tree flipped;
    int ties = 0;
    for (int round = 0; round < 400; ++round) {
      const TimeNs now = rng.UniformInt(0, 12);
      const double op = rng.NextDouble();
      if (round < 40 || op < 0.4) {
        Seq seq = RandomSeq(rng, 10);
        plain.Insert(KeyChain::Of(seq), now);
        flipped.Insert(KeyChain::Of(flip(seq)), now);
      } else if (op < 0.6) {
        Seq q = RandomSeq(rng, 10);
        plain.Touch(plain.Match(q), now);
        flipped.Touch(flipped.Match(flip(q)), now);
      } else if (op < 0.7) {
        // Retire one node, found in the twin by its flipped string.
        std::vector<Tree::Node*> nodes;
        plain.Visit([&](Tree::Node* node) { nodes.push_back(node); });
        Tree::Node* node = nodes[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(nodes.size()) - 1))];
        Tree::MatchResult twin = flipped.Match(flip(FullString(node)));
        ASSERT_EQ(twin.partial, nullptr);
        plain.Retire(node);
        flipped.Retire(twin.path.back());
      } else {
        const int budget = static_cast<int>(rng.UniformInt(1, 4));
        const LruList list = rng.NextDouble() < 0.5 ? LruList::kAll : LruList::kActive;
        const LruStep step = rng.NextDouble() < 0.7 ? LruStep::kRemove : LruStep::kRetire;
        for (Tree* tree : {&plain, &flipped}) {
          int left = budget;
          tree->ScanLruLeaves([&](Tree::Node&) { return left-- > 0 ? step : LruStep::kStop; },
                              list);
        }
      }
      ASSERT_EQ(plain.NodeCount(), flipped.NodeCount()) << "seed " << seed;
      for (LruList list : {LruList::kAll, LruList::kActive}) {
        ASSERT_EQ(order(plain, list, same), order(flipped, list, flip))
            << "seed " << seed << " round " << round;
      }
      std::set<TimeNs> times;
      std::vector<Tree::Node*> leaves = ScannedLruOrder(plain);
      for (const Tree::Node* leaf : leaves) {
        times.insert(leaf->last_access());
      }
      ties += times.size() < leaves.size() ? 1 : 0;
    }
    EXPECT_GT(ties, 200) << "seed " << seed;  // the tie order was exercised
  }
}

TEST(RadixPropertyTest, OneScanEvictsLikeRepeatedFindLruLeaf) {
  for (uint64_t seed : {4ull, 13ull, 57ull}) {
    Rng rng(seed);
    std::vector<std::pair<Seq, TimeNs>> inserts;
    for (int i = 0; i < 120; ++i) {
      Seq seq = RandomSeq(rng, 8);
      inserts.emplace_back(seq, rng.UniformInt(0, 30));
    }
    Tree repeated;
    Tree scanned;
    for (const auto& [seq, now] : inserts) {
      repeated.Insert(KeyChain::Of(seq), now);
      scanned.Insert(KeyChain::Of(seq), now);
    }
    // Removing eligible leaves exposes parents, which may be eligible in turn.
    std::vector<Seq> by_find;
    while (Tree::Node* leaf = repeated.FindLruLeaf(Eligible)) {
      by_find.push_back(FullString(leaf));
      repeated.RemoveLeaf(leaf);
    }
    std::vector<Seq> by_scan;
    scanned.ScanLruLeaves([&](Tree::Node& leaf) {
      if (!Eligible(leaf)) {
        return LruStep::kNext;
      }
      by_scan.push_back(FullString(&leaf));
      return LruStep::kRemove;
    });
    EXPECT_FALSE(by_find.empty());
    EXPECT_EQ(by_scan, by_find) << "seed " << seed;
    EXPECT_EQ(scanned.NodeCount(), repeated.NodeCount());
  }
}

TEST(RadixPropertyTest, ScanHandsOverExposedParentAtTheRemovedLeafsRank) {
  Tree tree;
  tree.Insert(KeyChain::Of(Seq{1, 2, 3}), 5);
  tree.Insert(KeyChain::Of(Seq{1, 2, 4}), 5);  // splits into [1 2] -> {[3], [4]}
  tree.Insert(KeyChain::Of(Seq{6}), 5);
  tree.Insert(KeyChain::Of(Seq{7}), 9);
  ASSERT_EQ(tree.NodeCount(), 5u);
  std::vector<Seq> removed;
  tree.ScanLruLeaves([&](Tree::Node& leaf) {
    removed.push_back(FullString(&leaf));
    return removed.size() < 4 ? LruStep::kRemove : LruStep::kStop;
  });
  // All of time 5 by insertion rank: [3] keeps the rank of the [1 2 3] it
  // was cut from, [4] and [6] come later. [1 2] shares [3]'s rank, becomes a
  // leaf once both children go and precedes [6], which the visitor keeps.
  // [7] is newer and is never reached.
  EXPECT_EQ(removed, (std::vector<Seq>{{1, 2, 3}, {1, 2, 4}, {1, 2}, {6}}));
  EXPECT_EQ(tree.NodeCount(), 2u);
  std::vector<Seq> left;
  for (const Tree::Node* leaf : ScannedLruOrder(tree)) {
    left.push_back(FullString(leaf));
  }
  EXPECT_EQ(left, (std::vector<Seq>{{6}, {7}}));
}

// Reference model for retirement: the symbol ranges retired so far, each
// [begin, full.size()) along the root-to-end string `full`. A node is retired
// exactly when its own span lies inside one of them, which stays true across
// splits (both halves of a retired node stay inside its range) and leaf
// removals (which shrink the range the leaf ended).
struct RetiredSpan {
  size_t begin = 0;
  Seq full;
};

size_t SpanBegin(const Tree::Node* node) { return node->depth - node->edge.size(); }

bool InsideRetiredSpan(const std::vector<RetiredSpan>& spans, const Tree::Node* node) {
  Seq full = FullString(node);
  return std::any_of(spans.begin(), spans.end(), [&](const RetiredSpan& span) {
    return span.begin <= SpanBegin(node) && full.size() <= span.full.size() &&
           std::equal(full.begin(), full.end(), span.full.begin());
  });
}

// Mirrors RemoveLeaf(leaf) in the reference: a removed leaf is the deepest
// piece of any retired range covering it, so that range now ends where the
// leaf began.
void ForgetLeaf(std::vector<RetiredSpan>* spans, const Seq& full, size_t begin) {
  for (auto it = spans->begin(); it != spans->end();) {
    if (it->full != full || it->begin > begin) {
      ++it;
    } else if (it->begin == begin) {
      it = spans->erase(it);
    } else {
      it->full.resize(begin);
      ++it;
    }
  }
}

TEST(RadixPropertyTest, ActiveListScansTheFullOrderWithRetiredNodesFilteredOut) {
  for (uint64_t seed : {6ull, 19ull, 43ull, 88ull}) {
    Rng rng(seed);
    Tree tree;
    RankModel model;
    std::vector<RetiredSpan> spans;
    auto remove_leaf = [&](Tree::Node* leaf) {
      ForgetLeaf(&spans, FullString(leaf), SpanBegin(leaf));
      model.Remove(leaf);
    };
    for (int round = 0; round < 400; ++round) {
      TimeNs now = rng.UniformInt(0, 12);
      double op = rng.NextDouble();
      if (round < 40 || op < 0.35) {
        Seq seq = RandomSeq(rng, 10);
        tree.Insert(KeyChain::Of(seq), now);  // splits retired nodes too
        model.Insert(seq);
      } else if (op < 0.55) {
        tree.Touch(tree.Match(RandomSeq(rng, 10)), now);
      } else if (op < 0.7) {
        // Retire a random node, leaf or not.
        std::vector<Tree::Node*> nodes;
        tree.Visit([&](Tree::Node* node) { nodes.push_back(node); });
        Tree::Node* node = nodes[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(nodes.size()) - 1))];
        if (!node->retired()) {
          spans.push_back({SpanBegin(node), FullString(node)});
        }
        tree.Retire(node);
      } else if (op < 0.85) {
        // Retire eligible leaves in one active scan, as the RTC swap scan does.
        int budget = static_cast<int>(rng.UniformInt(1, 6));
        tree.ScanLruLeaves(
            [&](Tree::Node& leaf) {
              if (budget-- <= 0) {
                return LruStep::kStop;
              }
              if (!Eligible(leaf)) {
                return LruStep::kNext;
              }
              spans.push_back({SpanBegin(&leaf), FullString(&leaf)});
              return LruStep::kRetire;
            },
            LruList::kActive);
      } else {
        // Remove a few leaves from either list; exposed parents follow.
        int budget = static_cast<int>(rng.UniformInt(1, 4));
        LruList list = rng.NextDouble() < 0.5 ? LruList::kAll : LruList::kActive;
        tree.ScanLruLeaves(
            [&](Tree::Node& leaf) {
              if (budget-- <= 0) {
                return LruStep::kStop;
              }
              remove_leaf(&leaf);
              return LruStep::kRemove;
            },
            list);
      }
      tree.Visit([&](Tree::Node* node) {
        ASSERT_EQ(node->retired(), InsideRetiredSpan(spans, node))
            << "seed " << seed << " round " << round;
      });
      std::vector<Tree::Node*> expected = ReferenceLruOrder(tree, model);
      std::erase_if(expected, [](const Tree::Node* n) { return n->retired(); });
      ASSERT_EQ(ScannedLruOrder(tree, LruList::kActive), expected)
          << "seed " << seed << " round " << round;
      ASSERT_EQ(ScannedLruOrder(tree), ReferenceLruOrder(tree, model))
          << "seed " << seed << " round " << round;
      ASSERT_EQ(tree.NodeCount(), WalkedNodeCount(tree));
      AuditStructure(tree);
    }
  }
}

TEST(RadixPropertyTest, SplitTailInheritsRetirement) {
  Tree tree;
  Tree::Node* leaf = tree.Insert(KeyChain::Of(Seq{1, 2, 3, 4}), 5);
  tree.Insert(KeyChain::Of(Seq{9}), 5);
  tree.Retire(leaf);
  ASSERT_EQ(ScannedLruOrder(tree, LruList::kActive).size(), 1u);
  // Diverging after [1 2] cuts the retired leaf into [1 2] -> [3 4]; the new
  // branch [5] is fresh.
  tree.Insert(KeyChain::Of(Seq{1, 2, 5}), 7);
  Tree::MatchResult m = tree.Match(Seq{1, 2, 3, 4});
  ASSERT_EQ(m.path.size(), 2u);
  EXPECT_TRUE(m.path[0]->retired());
  EXPECT_TRUE(m.path[1]->retired()) << "the split tail must inherit the mark";
  EXPECT_FALSE(tree.Match(Seq{1, 2, 5}).path.back()->retired());
  std::vector<Seq> active;
  for (Tree::Node* node : ScannedLruOrder(tree, LruList::kActive)) {
    active.push_back(FullString(node));
  }
  EXPECT_EQ(active, (std::vector<Seq>{{9}, {1, 2, 5}}));
  // Removing the retired tail exposes the retired head only to a full scan.
  std::vector<Seq> removed;
  tree.ScanLruLeaves([&](Tree::Node& node) {
    removed.push_back(FullString(&node));
    return node.retired() ? LruStep::kRemove : LruStep::kNext;
  });
  EXPECT_EQ(removed, (std::vector<Seq>{{1, 2, 3, 4}, {9}, {1, 2, 5}}));
  EXPECT_EQ(ScannedLruOrder(tree, LruList::kActive).size(), 2u);
}

TEST(RadixPropertyTest, ActiveScanEvictsLikeRepeatedFindLruLeafOverNonRetired) {
  for (uint64_t seed : {8ull, 31ull, 64ull}) {
    Rng rng(seed);
    std::vector<std::pair<Seq, TimeNs>> inserts;
    for (int i = 0; i < 120; ++i) {
      inserts.emplace_back(RandomSeq(rng, 8), rng.UniformInt(0, 30));
    }
    Tree repeated;
    Tree scanned;
    for (const auto& [seq, now] : inserts) {
      repeated.Insert(KeyChain::Of(seq), now);
      scanned.Insert(KeyChain::Of(seq), now);
    }
    // Same structure, so the same nodes retire in both trees.
    auto retire_some = [](Tree& tree) {
      tree.Visit([&](Tree::Node* node) {
        if (node->edge.front() % 4 == 0) {
          tree.Retire(node);
        }
      });
    };
    retire_some(repeated);
    retire_some(scanned);
    std::vector<Seq> by_find;
    while (Tree::Node* leaf = repeated.FindLruLeaf(
               [](const Tree::Node& n) { return !n.retired() && Eligible(n); })) {
      by_find.push_back(FullString(leaf));
      repeated.RemoveLeaf(leaf);
    }
    std::vector<Seq> by_scan;
    scanned.ScanLruLeaves(
        [&](Tree::Node& leaf) {
          if (!Eligible(leaf)) {
            return LruStep::kNext;
          }
          by_scan.push_back(FullString(&leaf));
          return LruStep::kRemove;
        },
        LruList::kActive);
    EXPECT_FALSE(by_find.empty());
    EXPECT_EQ(by_scan, by_find) << "seed " << seed;
    EXPECT_EQ(scanned.NodeCount(), repeated.NodeCount());
  }
}

// Distinct chains, each watched once (edges of one chain share an owner).
using ChainSet = std::set<std::weak_ptr<const void>, std::owner_less<>>;

size_t LiveChains(const ChainSet& chains) {
  return static_cast<size_t>(std::count_if(chains.begin(), chains.end(),
                                           [](const auto& chain) { return !chain.expired(); }));
}

TEST(RadixPropertyTest, EdgesHoldTheirChainsExactlyWhileInTheTree) {
  for (uint64_t seed : {5ull, 23ull, 47ull}) {
    Rng rng(seed);
    Tree tree;
    std::set<Seq> coverage;
    ChainSet chains;
    TimeNs now = 0;
    for (int round = 0; round < 200; ++round) {
      ++now;
      if (round < 30 || rng.NextDouble() < 0.6) {
        Seq seq = RandomSeq(rng, 10);
        {
          const KeyChain chain = KeyChain::Of(seq);
          chains.insert(chain.Watch());
          tree.Insert(chain, now);
        }  // from here on only the edges that slice it hold the chain
        AddCoverage(&coverage, seq);
      } else {
        Tree::Node* leaf = tree.FindLruLeaf([](const Tree::Node&) { return true; });
        if (leaf == nullptr) {
          continue;
        }
        Seq full = FullString(leaf);
        for (size_t len = leaf->parent->depth + 1; len <= full.size(); ++len) {
          coverage.erase(Seq(full.begin(), full.begin() + static_cast<ptrdiff_t>(len)));
        }
        tree.RemoveLeaf(leaf);
      }
      AuditStructure(tree);
      // Every path spells what the reference covers, read through the edges.
      ChainSet sliced;
      tree.Visit([&](Tree::Node* node) {
        EXPECT_EQ(coverage.count(FullString(node)), 1u) << "seed " << seed;
        sliced.insert(node->edge.Watch());
      });
      // A chain lives exactly while some node slices it: one per node at most.
      EXPECT_EQ(LiveChains(chains), sliced.size()) << "seed " << seed << " round " << round;
      EXPECT_LE(sliced.size(), tree.NodeCount());
    }
    while (tree.NodeCount() > 0) {
      tree.ScanLruLeaves([](Tree::Node&) { return LruStep::kRemove; });
    }
    EXPECT_EQ(LiveChains(chains), 0u) << "seed " << seed;
  }
}

TEST(RadixPropertyTest, JeTrimReleasesTheChainsOfTrimmedNodes) {
  // The JE's prompt tree at a small node cap. Its TE caches nothing, so once
  // the requests finish only the prompt tree can hold their chains.
  constexpr size_t kMaxNodes = 3;
  Rng rng(13);
  ChainSet chains;
  {
    sim::Simulator sim;
    serving::JeConfig config;
    config.max_tree_nodes = kMaxNodes;
    serving::JobExecutor je(&sim, config, serving::PdHeatmap::Default(),
                            serving::MakeOraclePredictor());
    serving::TeConfig te_config;
    te_config.id = 1;
    te_config.engine.model = model::ModelSpec::Tiny1B();
    te_config.engine.parallelism = {1, 1, 1};
    te_config.engine.kv_block_capacity_override = 4096;
    te_config.engine.enable_prefix_caching = false;
    serving::TaskExecutor te(&sim, te_config);
    je.AddColocatedTe(&te);
    for (int i = 0; i < 40; ++i) {
      // Up to six 16-token blocks, the first `shared` of them common to all
      // prompts: prefixes collide and split edges.
      const auto blocks = rng.UniformInt(1, 6);
      const auto shared = rng.UniformInt(0, blocks);
      std::vector<TokenId> tokens;
      for (int64_t b = 0; b < blocks; ++b) {
        const auto fill = static_cast<TokenId>(b < shared ? b + 1 : 1000 * (i + 1) + b);
        tokens.insert(tokens.end(), 16, fill);
      }
      workload::RequestSpec spec;
      spec.id = static_cast<workload::RequestId>(i + 1);
      spec.decode_len = 2;
      spec.prompt = std::move(tokens);
      const std::vector<BlockKey> keys = TokensToBlockKeys(spec.prompt);
      je.HandleRequest(spec, {});
      const auto routed = je.colocated_tree().Match(keys);
      for (const auto* node : routed.path) {
        chains.insert(node->edge.Watch());
      }
      ASSERT_LE(je.prompt_tree_nodes(), kMaxNodes);
    }
    sim.Run();
    ASSERT_EQ(te.engine().stats().completed, 40);
    // Trimmed nodes took their chains with them: what is left alive is what
    // the capped tree still slices.
    EXPECT_GT(chains.size(), kMaxNodes);
    EXPECT_LE(LiveChains(chains), je.prompt_tree_nodes());
  }
  EXPECT_EQ(LiveChains(chains), 0u);
}

TEST(RadixPropertyTest, TokensToBlockKeysDropsPartialTailAndChains) {
  std::vector<TokenId> tokens;
  for (int i = 0; i < 70; ++i) {
    tokens.push_back(1000 + i);
  }
  auto keys = TokensToBlockKeys(tokens);
  ASSERT_EQ(keys.size(), 4u) << "70 tokens / 16 = 4 full blocks";
  // Chain property: a prefix of tokens yields a prefix of keys.
  auto prefix_keys = TokensToBlockKeys(std::span<const TokenId>(tokens.data(), 32));
  ASSERT_EQ(prefix_keys.size(), 2u);
  EXPECT_EQ(prefix_keys[0], keys[0]);
  EXPECT_EQ(prefix_keys[1], keys[1]);
  // Divergence in the last block of a prefix changes that key only from
  // there on (chain hashing).
  std::vector<TokenId> fork = tokens;
  fork[40] = 9;
  auto fork_keys = TokensToBlockKeys(fork);
  EXPECT_EQ(fork_keys[0], keys[0]);
  EXPECT_EQ(fork_keys[1], keys[1]);
  EXPECT_NE(fork_keys[2], keys[2]);
  EXPECT_NE(fork_keys[3], keys[3]);
}

// Every block key a trace's prompts produce, chained or content-only (the
// PIC hash, seed 0), names exactly one (previous key, block) pair: no two
// distinct blocks share a 64-bit key. By induction over the chain, no two
// distinct block prefixes do either, as long as no key is 0 (the seed).
TEST(RadixPropertyTest, BlockKeysNeverCollideAcrossTraceGenerators) {
  struct Hashed {
    BlockKey prev = 0;
    std::array<TokenId, kBlockTokens> tokens{};
    bool operator==(const Hashed&) const = default;
  };
  auto check = [](const std::vector<workload::RequestSpec>& trace, const std::string& label) {
    std::unordered_map<BlockKey, Hashed> seen;
    size_t keys = 0;
    auto record = [&](BlockKey key, BlockKey prev, std::span<const TokenId, kBlockTokens> block) {
      Hashed entry{prev, {}};
      std::copy(block.begin(), block.end(), entry.tokens.begin());
      auto [it, fresh] = seen.emplace(key, entry);
      ASSERT_TRUE(fresh || it->second == entry) << label << ": key " << key << " collides";
      ASSERT_NE(key, 0u) << label;
      ++keys;
    };
    for (const workload::RequestSpec& spec : trace) {
      const std::span<const TokenId> tokens = spec.prompt.span();
      const std::vector<BlockKey> chain = TokensToBlockKeys(tokens);
      for (size_t b = 0; b < chain.size(); ++b) {
        record(chain[b], b == 0 ? 0 : chain[b - 1], Block(tokens, b));
        record(ChainHash(0, Block(tokens, b)), 0, Block(tokens, b));
      }
    }
    EXPECT_GT(keys, 2000u) << label;
    EXPECT_GT(seen.size(), 1000u) << label;
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string tag = " seed " + std::to_string(seed);
    using workload::TraceGenerator;
    check(TraceGenerator(TraceGenerator::InternalTrace(20.0, 4.0, seed)).Generate(),
          "poisson" + tag);
    check(TraceGenerator(TraceGenerator::InternalTrace(20.0, 4.0, seed))
              .GenerateBursty(5.0, 40.0, 2.0),
          "bursty" + tag);
    check(TraceGenerator(TraceGenerator::CodeGenTrace(15.0, 4.0, seed)).Generate(),
          "codegen" + tag);
    check(TraceGenerator::FixedBatch(32, 1024, 8, seed), "fixed" + tag);
  }
}

// A few key values, pinned so that a change to the hash is deliberate: the
// eviction order does not read keys (ScanOrderIsBlindToKeyValues), but every
// stored key and PIC index entry does.
TEST(RadixPropertyTest, BlockHashValuesArePinned) {
  std::vector<TokenId> tokens(48);
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<TokenId>(1000 + 37 * i);
  }
  const std::vector<BlockKey> keys = TokensToBlockKeys(tokens);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], 0x1acc14a03f18f3c1ull);
  EXPECT_EQ(keys[1], 0xf8cef258c3aa6ad0ull);
  EXPECT_EQ(keys[2], 0x96d75735d78d369cull);
  const std::array<TokenId, kBlockTokens> zeros{};
  EXPECT_EQ(ChainHash(0, zeros), 0xa3874edb7173d38full);
  EXPECT_EQ(ChainHash(keys[2], zeros), 0xbdb58c8d95d3f28eull);
}

}  // namespace
}  // namespace deepserve::rtc
