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
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "rtc/radix_tree.h"
#include "serving/heatmap.h"
#include "serving/job_executor.h"
#include "serving/predictor.h"
#include "serving/task_executor.h"
#include "sim/simulator.h"

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

// Reference eviction order: every leaf in pre-order, stably sorted by
// last_access — the order of a full depth-first walk that keeps the first
// leaf seen among equals.
std::vector<Tree::Node*> ReferenceLruOrder(Tree& tree) {
  std::vector<Tree::Node*> leaves;
  tree.Visit([&](Tree::Node* node) {
    if (node->is_leaf()) {
      leaves.push_back(node);
    }
  });
  std::stable_sort(leaves.begin(), leaves.end(), [](const Tree::Node* a, const Tree::Node* b) {
    return a->last_access() < b->last_access();
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

TEST(RadixPropertyTest, LruIndexMatchesPreorderReferenceUnderTiesAndOutOfOrderTouches) {
  for (uint64_t seed : {2ull, 11ull, 29ull, 71ull}) {
    Rng rng(seed);
    Tree tree;
    for (int round = 0; round < 400; ++round) {
      // A narrow time range makes ties common and touches often move a node
      // backwards in time.
      TimeNs now = rng.UniformInt(0, 12);
      double op = rng.NextDouble();
      if (round < 40 || op < 0.45) {
        tree.Insert(KeyChain::Of(RandomSeq(rng, 10)), now);
      } else if (op < 0.7) {
        auto match = tree.Match(RandomSeq(rng, 10));
        tree.Touch(match, now);
      } else if (op < 0.85) {
        Tree::Node* leaf = tree.FindLruLeaf(Eligible);
        std::vector<Tree::Node*> reference = ReferenceLruOrder(tree);
        auto first = std::find_if(reference.begin(), reference.end(),
                                  [](const Tree::Node* n) { return Eligible(*n); });
        ASSERT_EQ(leaf, first == reference.end() ? nullptr : *first) << "seed " << seed;
        if (leaf != nullptr) {
          tree.RemoveLeaf(leaf);
        }
      } else {
        // Evict a few leaves in one scan; parents the scan exposes are
        // handed over too.
        int budget = static_cast<int>(rng.UniformInt(1, 4));
        tree.ScanLruLeaves([&](Tree::Node&) {
          return budget-- > 0 ? LruStep::kRemove : LruStep::kStop;
        });
      }
      ASSERT_EQ(tree.NodeCount(), WalkedNodeCount(tree)) << "seed " << seed << " round " << round;
      ASSERT_EQ(ScannedLruOrder(tree), ReferenceLruOrder(tree))
          << "seed " << seed << " round " << round;
      AuditStructure(tree);
    }
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
  // All of time 5 in pre-order; [1 2] becomes a leaf once both children go
  // and precedes [6]. [7] is newer and is never reached.
  EXPECT_EQ(removed, (std::vector<Seq>{{1, 2, 3}, {1, 2, 4}, {1, 2}, {6}}));
  EXPECT_EQ(tree.NodeCount(), 2u);
  EXPECT_EQ(ScannedLruOrder(tree), ReferenceLruOrder(tree));
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
    std::vector<RetiredSpan> spans;
    auto remove_leaf = [&](Tree::Node* leaf) {
      ForgetLeaf(&spans, FullString(leaf), SpanBegin(leaf));
    };
    for (int round = 0; round < 400; ++round) {
      TimeNs now = rng.UniformInt(0, 12);
      double op = rng.NextDouble();
      if (round < 40 || op < 0.35) {
        tree.Insert(KeyChain::Of(RandomSeq(rng, 10)), now);  // splits retired nodes too
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
      std::vector<Tree::Node*> expected = ReferenceLruOrder(tree);
      std::erase_if(expected, [](const Tree::Node* n) { return n->retired(); });
      ASSERT_EQ(ScannedLruOrder(tree, LruList::kActive), expected)
          << "seed " << seed << " round " << round;
      ASSERT_EQ(ScannedLruOrder(tree), ReferenceLruOrder(tree))
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

}  // namespace
}  // namespace deepserve::rtc
