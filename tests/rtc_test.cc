#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/time_units.h"
#include "common/types.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve::rtc {
namespace {

std::vector<TokenId> Iota(int n, int start = 1000) {
  std::vector<TokenId> out(static_cast<size_t>(n));
  std::iota(out.begin(), out.end(), static_cast<TokenId>(start));
  return out;
}

// The RTC takes the caller's block-key chain of a prompt; these hash it.
MatchInfo Match(RtcMaster& master, std::span<const TokenId> tokens) {
  return master.MatchByPrefixToken(tokens, TokensToBlockKeys(tokens));
}

void Preserve(RtcMaster& master, std::span<const TokenId> tokens, const BlockTable& blocks) {
  master.Preserve(tokens, blocks, KeyChain::Hash(tokens));
}

Status PreserveById(RtcMaster& master, const std::string& id, std::span<const TokenId> tokens,
                    const BlockTable& blocks) {
  return master.PreserveById(id, tokens, blocks, KeyChain::Hash(tokens));
}

// ---------------- ChainHash / TokensToBlockKeys ----------------

TEST(ChainHashTest, DeterministicAndChainSensitive) {
  auto a = Iota(kBlockTokens);
  EXPECT_EQ(ChainHash(0, Block(a, 0)), ChainHash(0, Block(a, 0)));
  EXPECT_NE(ChainHash(0, Block(a, 0)), ChainHash(1, Block(a, 0)));  // different chain prefix
  auto b = a;
  b.back() += 1;
  EXPECT_NE(ChainHash(0, Block(a, 0)), ChainHash(0, Block(b, 0)));
}

TEST(TokensToBlockKeysTest, DropsPartialTail) {
  auto tokens = Iota(35);
  auto keys = TokensToBlockKeys(tokens);
  EXPECT_EQ(keys.size(), 2u);  // 35 tokens -> 2 full 16-token blocks
}

TEST(TokensToBlockKeysTest, PrefixKeysArePrefix) {
  auto tokens = Iota(64);
  auto full = TokensToBlockKeys(tokens);
  auto half = TokensToBlockKeys(std::span(tokens).first(32));
  ASSERT_EQ(full.size(), 4u);
  ASSERT_EQ(half.size(), 2u);
  EXPECT_EQ(full[0], half[0]);
  EXPECT_EQ(full[1], half[1]);
}

TEST(TokensToBlockKeysTest, DivergenceChangesAllLaterKeys) {
  auto a = Iota(48);
  auto b = a;
  b[20] += 1;  // diverge inside block 1
  auto ka = TokensToBlockKeys(a);
  auto kb = TokensToBlockKeys(b);
  EXPECT_EQ(ka[0], kb[0]);
  EXPECT_NE(ka[1], kb[1]);
  EXPECT_NE(ka[2], kb[2]);  // chain hash propagates divergence
}

// ---------------- RadixTree ----------------

struct CountPayload {
  int value = 0;
  CountPayload SplitTail(size_t) { return CountPayload{value}; }
};

TEST(RadixTreeTest, InsertAndExactMatch) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> keys = {11, 22, 33};
  tree.Insert(KeyChain::Of(keys), 1);
  auto match = tree.Match(keys);
  EXPECT_EQ(match.matched, 3u);
  EXPECT_EQ(match.partial, nullptr);
}

TEST(RadixTreeTest, PartialMatchOnDivergence) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  tree.Insert(KeyChain::Of(a), 1);
  std::vector<BlockKey> b = {1, 2, 9, 9};
  auto match = tree.Match(b);
  EXPECT_EQ(match.matched, 2u);
  ASSERT_NE(match.partial, nullptr);
  EXPECT_EQ(match.partial_len, 2u);
}

TEST(RadixTreeTest, InsertSplitsSharedPrefix) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  std::vector<BlockKey> b = {1, 2, 7, 8};
  tree.Insert(KeyChain::Of(a), 1);
  tree.Insert(KeyChain::Of(b), 2);
  // Nodes: [1,2] shared, [3,4], [7,8].
  EXPECT_EQ(tree.NodeCount(), 3u);
  EXPECT_EQ(tree.Match(a).matched, 4u);
  EXPECT_EQ(tree.Match(b).matched, 4u);
}

TEST(RadixTreeTest, OnNewCallbackCoversExactlyNewSpans) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  std::vector<std::pair<size_t, size_t>> spans;
  tree.Insert(KeyChain::Of(a), 1, [&](auto&, size_t b, size_t e) { spans.emplace_back(b, e); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], std::make_pair(size_t{0}, size_t{4}));
  // Extending by two symbols creates exactly one new node covering [4, 6).
  std::vector<BlockKey> ext = {1, 2, 3, 4, 5, 6};
  spans.clear();
  tree.Insert(KeyChain::Of(ext), 2, [&](auto&, size_t b, size_t e) { spans.emplace_back(b, e); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], std::make_pair(size_t{4}, size_t{6}));
}

TEST(RadixTreeTest, SplitPreservesDepthAndParentLinks) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  auto* leaf_a = tree.Insert(KeyChain::Of(a), 1);
  EXPECT_EQ(leaf_a->depth, 4u);
  std::vector<BlockKey> b = {1, 2, 7};
  auto* leaf_b = tree.Insert(KeyChain::Of(b), 2);
  EXPECT_EQ(leaf_b->depth, 3u);
  ASSERT_NE(leaf_b->parent, nullptr);
  EXPECT_EQ(leaf_b->parent->depth, 2u);
  EXPECT_EQ(leaf_b->parent, tree.Match(a).path.front());
}

TEST(RadixTreeTest, LruLeafSelection) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2};
  std::vector<BlockKey> b = {3, 4};
  tree.Insert(KeyChain::Of(a), /*now=*/10);
  tree.Insert(KeyChain::Of(b), /*now=*/20);
  auto* lru = tree.FindLruLeaf([](const auto&) { return true; });
  ASSERT_NE(lru, nullptr);
  EXPECT_EQ(lru->last_access(), 10);
  tree.RemoveLeaf(lru);
  EXPECT_EQ(tree.NodeCount(), 1u);
}

TEST(RadixTreeTest, MatchDoesNotCreateNodes) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3};
  tree.Match(a);
  EXPECT_EQ(tree.NodeCount(), 0u);
}

// ---------------- BlockPool ----------------

TEST(BlockPoolTest, AllocateRespectsCapacity) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 2});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(4, Tier::kNpu, &blocks).ok());
  EXPECT_EQ(pool.free_blocks(Tier::kNpu), 0);
  EXPECT_FALSE(pool.Allocate(1, Tier::kNpu, &blocks).ok());
  EXPECT_TRUE(pool.Allocate(2, Tier::kDram, &blocks).ok());
  // Six fresh blocks in one growing slab: one extent.
  EXPECT_EQ(blocks.size(), 6u);
  EXPECT_EQ(blocks.extents().size(), 1u);
}

TEST(BlockPoolTest, FailedAllocateIsAtomic) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 0});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu, &blocks).ok());
  EXPECT_FALSE(pool.Allocate(2, Tier::kNpu, &blocks).ok());
  EXPECT_EQ(pool.used(Tier::kNpu), 3);
  EXPECT_EQ(blocks.size(), 3u);
}

TEST(BlockPoolTest, UnrefDestroysPrivateBlocks) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(2, Tier::kNpu, &blocks).ok());
  pool.Unref({blocks[0], 1});
  EXPECT_FALSE(pool.Exists(blocks[0]));
  EXPECT_TRUE(pool.Exists(blocks[1]));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
}

TEST(BlockPoolTest, UnrefKeepsCachedBlocks) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu, &blocks).ok());
  const Extent all = blocks.extents()[0];
  pool.MarkCached({all.first + 1, 1});
  pool.Unref(all);
  EXPECT_FALSE(pool.Exists(blocks[0]));
  EXPECT_TRUE(pool.Exists(blocks[1]));
  EXPECT_FALSE(pool.Exists(blocks[2]));
  EXPECT_EQ(pool.info(blocks[1]).ref_count, 0);
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
}

// One fresh block, allocated on `tier`.
BlockId AllocOne(BlockPool& pool, Tier tier) {
  BlockTable blocks;
  DS_CHECK_OK(pool.Allocate(1, tier, &blocks));
  return blocks.front();
}

TEST(BlockPoolTest, ResidencyBitmaskAndCounters) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = AllocOne(pool, Tier::kNpu);
  BlockTable added;
  pool.AddResidency({id, 1}, Tier::kDram, &added);
  EXPECT_EQ(added.size(), 1u);
  EXPECT_TRUE(pool.info(id).resident(Tier::kNpu));
  EXPECT_TRUE(pool.info(id).resident(Tier::kDram));
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency({id, 1}, Tier::kNpu);
  EXPECT_FALSE(pool.info(id).resident(Tier::kNpu));
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Idempotent add/drop.
  added.clear();
  pool.AddResidency({id, 1}, Tier::kDram, &added);
  EXPECT_TRUE(added.empty());
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency({id, 1}, Tier::kNpu);
}

TEST(BlockPoolTest, AddResidencyStopsWhereTheTierFills) {
  BlockPool pool({.npu_capacity = 8, .dram_capacity = 4});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(5, Tier::kNpu, &blocks).ok());
  const Extent all = blocks.extents()[0];
  BlockTable added;
  pool.AddResidency({all.first + 1, 1}, Tier::kDram, &added);
  added.clear();
  // Block 1 already has its copy; blocks 0, 2 and 3 fill the tier; 4 gets none.
  pool.AddResidency(all, Tier::kDram, &added);
  ASSERT_EQ(added.extents().size(), 2u);
  EXPECT_EQ(added.extents()[0], (Extent{all.first, 1}));
  EXPECT_EQ(added.extents()[1], (Extent{all.first + 2, 2}));
  EXPECT_EQ(pool.used(Tier::kDram), 4);
  EXPECT_FALSE(pool.info(blocks[4]).resident(Tier::kDram));
}

TEST(BlockPoolTest, DestroyReleasesAllTiers) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = AllocOne(pool, Tier::kNpu);
  BlockTable added;
  pool.AddResidency({id, 1}, Tier::kDram, &added);
  pool.MarkCached({id, 1});
  pool.Unref({id, 1});
  pool.Destroy({id, 1});
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  EXPECT_EQ(pool.used(Tier::kDram), 0);
  EXPECT_FALSE(pool.Exists(id));
}

TEST(BlockPoolTest, CopyPinsCountAndStaleUnpinIsANoOp) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = AllocOne(pool, Tier::kNpu);
  pool.Pin({id, 1});
  pool.Pin({id, 1});
  pool.Unpin({id, 1});
  EXPECT_TRUE(pool.info(id).pinned());
  // A private block dies with its last ref even mid-copy; its slot is reused.
  pool.Unref({id, 1});
  ASSERT_FALSE(pool.Exists(id));
  BlockId reused = AllocOne(pool, Tier::kNpu);
  EXPECT_FALSE(pool.info(reused).pinned());
  // The copy's completion unpins the dead id: the new occupant is untouched.
  pool.Pin({reused, 1});
  pool.Unpin({id, 1});
  EXPECT_TRUE(pool.info(reused).pinned());
  pool.Unpin({reused, 1});
  EXPECT_FALSE(pool.info(reused).pinned());
}

TEST(BlockPoolTest, FreeRangesCoalesceAndAllocateFirstFit) {
  BlockPool pool({.npu_capacity = 16, .dram_capacity = 0});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(8, Tier::kNpu, &blocks).ok());
  const Extent all = blocks.extents()[0];
  // Free slots 1-2 and 5, then 3-4: the frees coalesce into one range, 1-5.
  pool.Unref({all.first + 1, 2});
  pool.Unref({all.first + 5, 1});
  pool.Unref({all.first + 3, 2});
  EXPECT_EQ(pool.slab_slots(), 8u);
  // Five blocks fit the first free range: one extent, no slab growth.
  BlockTable five;
  ASSERT_TRUE(pool.Allocate(5, Tier::kNpu, &five).ok());
  ASSERT_EQ(five.extents().size(), 1u);
  EXPECT_EQ(five.extents()[0].count, 5u);
  EXPECT_EQ(pool.slab_slots(), 8u);
  // No free slot is left: the slab grows, by exactly what is asked.
  BlockTable two;
  ASSERT_TRUE(pool.Allocate(2, Tier::kNpu, &two).ok());
  EXPECT_EQ(pool.slab_slots(), 10u);
  EXPECT_EQ(pool.range_takes(), 3);
  EXPECT_EQ(pool.blocks_taken(), 15);
}

TEST(BlockPoolTest, ParkFreesTheSlotButKeepsTheDramCount) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = AllocOne(pool, Tier::kNpu);
  BlockTable added;
  pool.AddResidency({id, 1}, Tier::kDram, &added);
  pool.MarkCached({id, 1});
  pool.Unref({id, 1});
  EXPECT_FALSE(pool.info(id).parkable()) << "an NPU copy still lives";
  pool.DropResidency({id, 1}, Tier::kNpu);
  ASSERT_TRUE(pool.info(id).parkable());
  pool.Park({id, 1});
  EXPECT_FALSE(pool.Exists(id));
  EXPECT_EQ(pool.total_blocks(), 0u);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  EXPECT_EQ(pool.free_blocks(Tier::kDram), 3);
  // Unpark gives the block a fresh slot without counting it again.
  BlockTable back;
  pool.Unpark(1, &back);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NE(back.front(), id);
  EXPECT_EQ(pool.total_blocks(), 1u);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  const BlockInfo& info = pool.info(back.front());
  EXPECT_EQ(info.flags, kBlockCommitted);
  EXPECT_EQ(info.ref_count, 0);
  EXPECT_EQ(info.residency, TierBit(Tier::kDram));
  EXPECT_TRUE(info.parkable());
}

TEST(BlockPoolTest, HeldOrIndexedBlocksAreNotParkable) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = AllocOne(pool, Tier::kDram);
  EXPECT_FALSE(pool.info(id).parkable()) << "referenced and private";
  pool.MarkCached({id, 1});
  pool.Unref({id, 1});
  ASSERT_TRUE(pool.info(id).parkable());
  pool.Pin({id, 1});
  EXPECT_FALSE(pool.info(id).parkable()) << "a copy is in flight";
  pool.Unpin({id, 1});
  pool.MarkIndexed({id, 1});
  EXPECT_TRUE(pool.info(id).cached());
  EXPECT_FALSE(pool.info(id).parkable()) << "an id index holds the block";
  BlockId npu = AllocOne(pool, Tier::kNpu);
  pool.MarkCached({npu, 1});
  pool.Unref({npu, 1});
  EXPECT_FALSE(pool.info(npu).parkable()) << "not in DRAM";
}

// ---------------- BlockTable ----------------

TEST(BlockTableTest, AppendMergesContiguousExtentsAndSplitsAnywhere) {
  const BlockId a = (BlockId{3} << 32) | 10;
  const BlockId b = (BlockId{5} << 32) | 14;  // another generation
  BlockTable table;
  table.Append({a, 2});
  table.Append({a + 2, 2});  // contiguous: merges
  table.Append({b, 3});
  ASSERT_EQ(table.extents().size(), 2u);
  EXPECT_EQ(table.size(), 7u);
  EXPECT_EQ(table[3], a + 3);
  EXPECT_EQ(table[4], b);
  EXPECT_EQ(table.Slice(3, 5).extents().size(), 2u);
  BlockTable copy = table;
  BlockTable tail = copy.SplitTail(3);
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.extents().back(), (Extent{a, 3}));
  ASSERT_EQ(tail.extents().size(), 2u);
  EXPECT_EQ(tail.extents()[0], (Extent{a + 3, 1}));
  EXPECT_EQ(tail.extents()[1], (Extent{b, 3}));
  copy.Append(tail);
  EXPECT_EQ(copy, table) << "a split and re-append restores the table";
  BlockTable at_boundary = table;
  EXPECT_EQ(at_boundary.SplitTail(4).extents()[0], (Extent{b, 3}));
  EXPECT_EQ(at_boundary.extents().size(), 1u);
}

// ---------------- RtcMaster ----------------

class RtcMasterTest : public ::testing::Test {
 protected:
  RtcMasterTest() { Reset(64); }
  // The background swapper always runs. Tests that must not see a scan stay
  // below its NPU-use watermark or end within one swap interval.
  void Reset(int64_t npu_blocks) {
    RtcConfig config;
    config.pool.npu_capacity = npu_blocks;
    config.pool.dram_capacity = 256;
    config.bytes_per_block = 1 << 20;
    master_ = std::make_unique<RtcMaster>(&sim_, config);
  }

  // Simulates a prefill: allocate blocks for the tokens, preserve, release.
  BlockTable PrefillAndPreserve(const std::vector<TokenId>& tokens) {
    int64_t n = static_cast<int64_t>(tokens.size()) / 16;
    auto blocks = master_->AllocBlocks(n).value();
    Preserve(*master_, tokens, blocks);
    master_->Free(blocks);
    return blocks;
  }

  sim::Simulator sim_;
  std::unique_ptr<RtcMaster> master_;
};

TEST_F(RtcMasterTest, MissOnEmptyCache) {
  auto info = Match(*master_, Iota(64));
  EXPECT_FALSE(info.hit());
  EXPECT_EQ(master_->stats().match_misses, 1);
}

TEST_F(RtcMasterTest, HitAfterPreserve) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = Match(*master_, tokens);
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_EQ(info.npu_tokens, 64);
  EXPECT_FALSE(info.needs_populate());
  EXPECT_EQ(master_->stats().match_hits, 1);
}

TEST_F(RtcMasterTest, PartialPrefixHit) {
  PrefillAndPreserve(Iota(64));
  auto longer = Iota(128);  // same first 64 tokens
  auto info = Match(*master_, longer);
  EXPECT_EQ(info.matched_tokens, 64);
}

TEST_F(RtcMasterTest, DivergentPromptsShareOnlyCommonBlocks) {
  auto a = Iota(64);
  PrefillAndPreserve(a);
  auto b = a;
  b[40] = 7;  // diverges inside block 2
  auto info = Match(*master_, b);
  EXPECT_EQ(info.matched_tokens, 32);  // blocks 0 and 1 only
}

TEST_F(RtcMasterTest, AcquirePinsAgainstEviction) {
  auto tokens = Iota(16 * 60);
  PrefillAndPreserve(tokens);
  auto info = Match(*master_, tokens);
  master_->Acquire(info.blocks);
  // Now demand more blocks than remain: eviction cannot touch pinned blocks.
  EXPECT_FALSE(master_->AllocBlocks(10).ok());
  master_->Free(info.blocks);
  EXPECT_TRUE(master_->AllocBlocks(10).ok());  // eviction now allowed
}

TEST_F(RtcMasterTest, EvictionDiscardsLruEntry) {
  Reset(8);
  auto a = Iota(64, 0);       // 4 blocks
  auto b = Iota(64, 50000);   // 4 blocks, distinct tokens
  PrefillAndPreserve(a);
  sim_.RunUntil(sim_.Now() + 100);
  PrefillAndPreserve(b);
  // Pool full of cached blocks; allocating forces eviction of LRU entry (a).
  auto blocks = master_->AllocBlocks(4);
  ASSERT_TRUE(blocks.ok());
  EXPECT_FALSE(Match(*master_, a).hit());
  EXPECT_TRUE(Match(*master_, b).hit());
  EXPECT_GT(master_->stats().discarded_blocks, 0);
}

TEST_F(RtcMasterTest, DiscardTakesExposedSharedPrefixBeforeNewerEntries) {
  Reset(12);
  auto a = Iota(64, 0);  // 4 blocks
  auto b = a;            // shares a's first 2 blocks, then diverges
  for (size_t i = 32; i < b.size(); ++i) {
    b[i] = static_cast<TokenId>(70000 + i);
  }
  PrefillAndPreserve(a);
  PrefillAndPreserve(b);  // splits a: shared [2 blocks] -> two 2-block tails
  sim_.RunUntil(sim_.Now() + 100);
  auto c = Iota(64, 30000);
  PrefillAndPreserve(c);
  ASSERT_EQ(master_->npu_blocks_used(), 10);
  ASSERT_EQ(master_->index_nodes(), 4u);
  // Freeing 6 blocks discards both old tails; that leaves the shared prefix a
  // leaf exactly as old as they were, so it goes next — not the newer c.
  ASSERT_TRUE(master_->AllocBlocks(8).ok());
  EXPECT_EQ(master_->stats().discarded_blocks, 6);
  EXPECT_EQ(master_->index_nodes(), 1u);
  EXPECT_EQ(Match(*master_, c).matched_tokens, 64);
  EXPECT_FALSE(Match(*master_, a).hit());
}

TEST_F(RtcMasterTest, MatchByIdRoundTrip) {
  auto tokens = Iota(48);
  auto blocks = master_->AllocBlocks(3).value();
  ASSERT_TRUE(PreserveById(*master_, "ctx-1", tokens, blocks).ok());
  master_->Free(blocks);
  auto info = master_->MatchByID("ctx-1");
  EXPECT_EQ(info.matched_tokens, 48);
  EXPECT_FALSE(master_->MatchByID("ctx-2").hit());
}

TEST_F(RtcMasterTest, NestedIdEntriesMatchIndependently) {
  // Three ids over one cached context, each covering a different prefix of
  // the same blocks: every id matches its own length and its own blocks.
  auto tokens = Iota(48);
  auto blocks = master_->AllocBlocks(3).value();
  const std::span<const TokenId> all(tokens);
  ASSERT_TRUE(PreserveById(*master_, "ctx-b", all, blocks).ok());
  ASSERT_TRUE(
      PreserveById(*master_, "ctx-a", all.first(32), blocks.Slice(0, 2)).ok());
  ASSERT_TRUE(
      PreserveById(*master_, "ctx-c", all.first(16), blocks.Slice(0, 1)).ok());
  master_->Free(blocks);
  const MatchInfo a = master_->MatchByID("ctx-a");
  const MatchInfo b = master_->MatchByID("ctx-b");
  const MatchInfo c = master_->MatchByID("ctx-c");
  EXPECT_EQ(a.matched_tokens, 32);
  EXPECT_EQ(b.matched_tokens, 48);
  EXPECT_EQ(c.matched_tokens, 16);
  EXPECT_EQ(a.blocks, blocks.Slice(0, 2));
  EXPECT_EQ(b.blocks, blocks);
  EXPECT_EQ(c.blocks, blocks.Slice(0, 1));
  // Preserving an existing id again replaces its entry.
  ASSERT_TRUE(PreserveById(*master_, "ctx-c", all, blocks).ok());
  EXPECT_EQ(master_->MatchByID("ctx-c").matched_tokens, 48);
  EXPECT_EQ(master_->MatchByID("ctx-a").matched_tokens, 32);
}

TEST_F(RtcMasterTest, PreserveByIdRejectsBadInput) {
  auto blocks = master_->AllocBlocks(1).value();
  EXPECT_FALSE(PreserveById(*master_, "", Iota(16), blocks).ok());
  EXPECT_FALSE(PreserveById(*master_, "x", Iota(5), blocks).ok());  // < 1 block
  master_->Free(blocks);
}

TEST_F(RtcMasterTest, IdEntrySurvivesImplicitMatchToo) {
  auto tokens = Iota(48);
  auto blocks = master_->AllocBlocks(3).value();
  ASSERT_TRUE(PreserveById(*master_, "ctx", tokens, blocks).ok());
  master_->Free(blocks);
  EXPECT_TRUE(Match(*master_, tokens).hit());
}

TEST_F(RtcMasterTest, CopyToDramThenEvictKeepsEntryMatchable) {
  Reset(8);
  auto tokens = Iota(64);
  auto blocks = master_->AllocBlocks(4).value();
  Preserve(*master_, tokens, blocks);
  bool copied = false;
  master_->Copy(blocks, Tier::kDram, [&] { copied = true; });
  sim_.Run();
  EXPECT_TRUE(copied);
  master_->Free(blocks);
  // Fill the NPU: the DRAM-backed entry gets demoted, not discarded.
  ASSERT_TRUE(master_->AllocBlocks(8).ok());
  auto info = Match(*master_, tokens);
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_TRUE(info.needs_populate());
  EXPECT_EQ(info.npu_tokens, 0);
  EXPECT_GT(master_->stats().evicted_blocks, 0);
  EXPECT_EQ(master_->stats().discarded_blocks, 0);
}

TEST_F(RtcMasterTest, PopulateBringsBlocksBack) {
  Reset(8);
  auto tokens = Iota(64);
  auto blocks = master_->AllocBlocks(4).value();
  Preserve(*master_, tokens, blocks);
  master_->Copy(blocks, Tier::kDram, nullptr);
  sim_.Run();
  master_->Free(blocks);
  auto filler = master_->AllocBlocks(8).value();  // forces NPU drop
  master_->Free(filler);
  auto info = Match(*master_, tokens);
  ASSERT_TRUE(info.needs_populate());
  master_->Acquire(info.blocks);
  auto ticket = master_->Populate(info);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kInFlight);
  bool ready = false;
  master_->OnPopulateReady(*ticket, [&] { ready = true; });
  sim_.Run();
  EXPECT_TRUE(ready);
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  auto again = Match(*master_, tokens);
  EXPECT_EQ(again.npu_tokens, 64);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, PopulateOfResidentBlocksIsInstantlyReady) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = Match(*master_, tokens);
  master_->Acquire(info.blocks);
  auto ticket = master_->Populate(info);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, EmptyCopyTakesAnEmptyCallback) {
  EXPECT_EQ(master_->Copy({}, Tier::kDram, nullptr), 0);
  sim_.Run();
  EXPECT_EQ(master_->pool().used(Tier::kDram), 0);
}

TEST_F(RtcMasterTest, ReadyTicketTakesAnEmptyCallback) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = Match(*master_, tokens);
  master_->Acquire(info.blocks);
  auto ticket = master_->Populate(info);
  ASSERT_TRUE(ticket.ok());
  master_->OnPopulateReady(*ticket, nullptr);
  sim_.Run();
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, QueryUnknownTicket) {
  EXPECT_EQ(master_->QueryPopulate(9999), PopulateState::kUnknown);
}

TEST_F(RtcMasterTest, QueryPopulateKnowsExactlyTheReturnedTickets) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = Match(*master_, tokens);
  master_->Acquire(info.blocks);
  auto first = master_->Populate(info);
  auto second = master_->Populate(info);
  ASSERT_TRUE(first.ok() && second.ok());
  // Resident populates still take consecutive tickets and stay queryable.
  EXPECT_EQ(*second, *first + 1);
  EXPECT_EQ(master_->QueryPopulate(*first), PopulateState::kReady);
  EXPECT_EQ(master_->QueryPopulate(*second), PopulateState::kReady);
  EXPECT_EQ(master_->QueryPopulate(0), PopulateState::kUnknown);
  EXPECT_EQ(master_->QueryPopulate(*second + 1), PopulateState::kUnknown);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, TruncateMatchRecomputesResidency) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = Match(*master_, tokens);
  auto cut = master_->TruncateMatch(info, 40);  // not block aligned -> 32
  EXPECT_EQ(cut.matched_tokens, 32);
  EXPECT_EQ(cut.blocks.size(), 2u);
  EXPECT_EQ(cut.npu_tokens, 32);
  EXPECT_EQ(cut.offnpu_tokens, 0);
}

TEST_F(RtcMasterTest, BackgroundSwapDemotesColdBlocks) {
  Reset(16);
  // Fill most of the NPU with cold cache (above the 0.85 watermark).
  PrefillAndPreserve(Iota(16 * 7, 0));
  PrefillAndPreserve(Iota(16 * 7, 90000));
  sim_.RunUntil(sim_.Now() + SToNs(2));
  EXPECT_GT(master_->stats().swapped_out_blocks, 0);
  // Entries remain matchable after demotion.
  EXPECT_TRUE(Match(*master_, Iota(16 * 7, 0)).hit());
}

TEST_F(RtcMasterTest, BackgroundSwapUsesTheFixedWatermarkIntervalAndBatch) {
  // Caches `cold` single-block leaves in a 100-block pool, all at t = 0.
  auto fill = [this](int cold) {
    Reset(100);
    for (int i = 0; i < cold; ++i) {
      PrefillAndPreserve(Iota(16, 1000 * (i + 1)));
    }
  };
  // 84% NPU use stays under the 85% watermark: no scan is ever scheduled.
  fill(84);
  sim_.Run();
  EXPECT_EQ(sim_.Now(), 0);
  EXPECT_EQ(master_->stats().swap_scan_leaves, 0);
  // 90% NPU use: one scan, 50 ms later, demotes one 64-block batch.
  fill(90);
  sim_.RunUntil(MsToNs(50) - 1);
  EXPECT_EQ(master_->stats().swapped_out_blocks, 0);
  sim_.RunUntil(MsToNs(50));
  EXPECT_EQ(master_->stats().swapped_out_blocks, 64);
}

// A fleet-shaped swap setup: `cold` single-block cached leaves plus enough
// held private blocks to keep NPU usage above the swap watermark after the
// cold leaves are demoted, so the swapper keeps scanning every interval.
class SwapScanTest : public ::testing::Test {
 protected:
  void Build(int64_t dram_blocks, int cold) {
    RtcConfig config;
    config.pool.npu_capacity = 40;
    config.pool.dram_capacity = dram_blocks;
    master_ = std::make_unique<RtcMaster>(&sim_, config);
    for (int i = 0; i < cold; ++i) {
      auto blocks = master_->AllocBlocks(1).value();
      Preserve(*master_, Iota(16, 1000 * (i + 1)), blocks);
      master_->Free(blocks);
    }
  }

  // Runs one swap interval (scans fire at multiples of 50 ms).
  void NextScan() {
    next_ += RtcMaster::kSwapInterval;
    sim_.RunUntil(next_);
  }

  int64_t Scanned() const { return master_->stats().swap_scan_leaves; }

  sim::Simulator sim_;
  std::unique_ptr<RtcMaster> master_;
  TimeNs next_ = MsToNs(25);
};

TEST_F(SwapScanTest, DemotedLeafIsNeverHandedToALaterSwapScan) {
  Build(/*dram_blocks=*/256, /*cold=*/3);
  // One more cached leaf, pinned by a live sequence: not swappable yet.
  std::vector<TokenId> pinned_tokens = Iota(16, 9000);
  auto pinned = master_->AllocBlocks(1).value();
  Preserve(*master_, pinned_tokens, pinned);
  auto held = master_->AllocBlocks(35).value();  // 39 of 40 NPU blocks used

  // Scan 1 demotes the three cold leaves; the pinned one stays.
  NextScan();
  EXPECT_EQ(Scanned(), 4);
  EXPECT_EQ(master_->stats().swapped_out_blocks, 3);
  EXPECT_EQ(master_->pool().used(Tier::kDram), 3);
  // Scan 2 passes the demoted leaves once more and retires them; from then
  // on a scan sees only the pinned leaf.
  NextScan();
  EXPECT_EQ(Scanned(), 8);
  NextScan();
  NextScan();
  EXPECT_EQ(Scanned(), 10);
  EXPECT_EQ(master_->stats().swapped_out_blocks, 3);

  // Unpinned, the leaf is still on the scan's list and gets demoted.
  master_->Free(pinned);
  NextScan();
  EXPECT_EQ(master_->stats().swapped_out_blocks, 4);
  NextScan();
  NextScan();
  EXPECT_EQ(Scanned(), 12) << "only the newly demoted leaf's retiring pass";
  // Demoted entries stay matchable from DRAM.
  rtc::MatchInfo info = Match(*master_, pinned_tokens);
  EXPECT_EQ(info.matched_tokens, 16);
  EXPECT_EQ(info.offnpu_tokens, 16);
  master_->Free(held);
}

TEST_F(SwapScanTest, SplitHalfWithoutADramCopyStaysSwappable) {
  Build(/*dram_blocks=*/256, /*cold=*/0);
  std::vector<TokenId> head = Iota(16, 5000);
  std::vector<TokenId> leaf_tokens = head;
  std::vector<TokenId> tail = Iota(16, 6000);
  leaf_tokens.insert(leaf_tokens.end(), tail.begin(), tail.end());
  auto leaf = master_->AllocBlocks(2).value();
  Preserve(*master_, leaf_tokens, leaf);
  master_->Free(leaf);
  // An explicit checkpoint of the first block only: the leaf is partly in
  // DRAM, so no swap can take it, but it is not fully demoted either.
  EXPECT_EQ(master_->Copy(leaf.Slice(0, 1), Tier::kDram, nullptr), 1);
  auto held = master_->AllocBlocks(36).value();  // 38 of 40 NPU blocks used
  NextScan();
  EXPECT_EQ(Scanned(), 1);
  EXPECT_EQ(master_->stats().swapped_out_blocks, 0);
  // A prompt that shares only the first block splits the leaf; its second
  // half has no DRAM copy and is swappable again.
  std::vector<TokenId> fork = head;
  std::vector<TokenId> other = Iota(16, 7000);
  fork.insert(fork.end(), other.begin(), other.end());
  auto fork_blocks = master_->AllocBlocks(2).value();
  Preserve(*master_, fork, fork_blocks);
  master_->Free(fork_blocks);
  NextScan();
  EXPECT_TRUE(master_->pool().info(leaf[1]).resident(Tier::kDram));
  EXPECT_EQ(master_->stats().swapped_out_blocks, 2) << "the split-off half and the fork's leaf";
  master_->Free(held);
}

TEST_F(SwapScanTest, FullDramTakesNoVictimsAndCountsOnlyStartedCopies) {
  Build(/*dram_blocks=*/2, /*cold=*/3);
  auto held = master_->AllocBlocks(35).value();  // 38 of 40 NPU blocks used
  NextScan();
  EXPECT_EQ(master_->stats().swapped_out_blocks, 2);
  EXPECT_EQ(master_->pool().used(Tier::kDram), 2);
  // DRAM is full: the third cold leaf stays NPU-only, and later scans
  // neither pick it nor count it; they do not even look.
  const int64_t scanned = Scanned();
  for (int i = 0; i < 4; ++i) {
    NextScan();
  }
  EXPECT_EQ(Scanned(), scanned);
  EXPECT_EQ(master_->stats().swapped_out_blocks, 2);
  EXPECT_EQ(master_->pool().used(Tier::kDram), 2);
  EXPECT_EQ(master_->npu_blocks_used(), 36);
  // Copy reports the blocks it started: none fit.
  EXPECT_EQ(master_->Copy(held, Tier::kDram, nullptr), 0);
  master_->Free(held);
}

// A cached 4-block leaf that the swapper takes down to DRAM: scan 1 demotes it
// (its copy lands at once and drops the NPU copies), scan 2 retires it and
// parks its run. 35 held private blocks keep the NPU above the watermark.
class ParkTest : public SwapScanTest {
 protected:
  void SetUp() override {
    Build(/*dram_blocks=*/256, /*cold=*/0);
    leaf_ = master_->AllocBlocks(4).value();
  }
  void TearDown() override { master_->Free(held_); }

  // Commits the leaf and holds the NPU above the watermark.
  void CommitAndHold(bool by_id = false) {
    if (by_id) {
      ASSERT_TRUE(PreserveById(*master_, "ctx", tokens_, leaf_).ok());
    } else {
      Preserve(*master_, tokens_, leaf_);
    }
    master_->Free(leaf_);
    held_ = master_->AllocBlocks(35).value();  // 39 of 40; 35 once demoted
  }

  // Runs the populate copies that are in flight, and nothing later.
  void LandCopies() { sim_.RunUntil(sim_.Now() + 1); }

  std::vector<TokenId> tokens_ = Iota(64, 5000);
  BlockTable leaf_;
  BlockTable held_;
};

TEST_F(ParkTest, ParkedLeafMatchesAsBeforeAndParksAgain) {
  CommitAndHold();
  NextScan();
  ASSERT_EQ(master_->stats().swapped_out_blocks, 4);
  const size_t slots = master_->pool().total_blocks();
  const MatchInfo before = Match(*master_, tokens_);
  EXPECT_EQ(before.offnpu_tokens, 64);

  NextScan();
  EXPECT_EQ(master_->stats().parked_blocks, 4);
  EXPECT_EQ(master_->pool().total_blocks(), slots - 4);
  EXPECT_EQ(master_->pool().used(Tier::kDram), 4);
  EXPECT_FALSE(master_->pool().Exists(before.blocks.front())) << "the slot is gone";

  // A match gives the run fresh slots and reports the same split.
  const MatchInfo after = Match(*master_, tokens_);
  EXPECT_EQ(master_->stats().unparked_blocks, 4);
  EXPECT_EQ(after.matched_tokens, before.matched_tokens);
  EXPECT_EQ(after.npu_tokens, before.npu_tokens);
  EXPECT_EQ(after.offnpu_tokens, before.offnpu_tokens);
  EXPECT_EQ(master_->pool().total_blocks(), slots);
  EXPECT_EQ(master_->pool().used(Tier::kDram), 4) << "an unparked block is not counted twice";
  // A second match finds the slots in place.
  EXPECT_EQ(Match(*master_, tokens_).blocks, after.blocks);
  EXPECT_EQ(master_->stats().unparked_blocks, 4);

  // Populate lands the blocks on the NPU.
  master_->Acquire(after.blocks);
  auto ticket = master_->Populate(after);
  ASSERT_TRUE(ticket.ok());
  LandCopies();
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  EXPECT_EQ(Match(*master_, tokens_).npu_tokens, 64);
  master_->Free(after.blocks);

  // Released and demoted again by the drop pass, the run parks again.
  ASSERT_TRUE(master_->EnsureNpuFree(5).ok());
  EXPECT_EQ(master_->stats().evicted_blocks, 4);
  EXPECT_EQ(master_->stats().parked_blocks, 8);
  EXPECT_EQ(master_->pool().total_blocks(), slots - 4);
  EXPECT_EQ(master_->pool().used(Tier::kDram), 4);
  EXPECT_EQ(Match(*master_, tokens_).offnpu_tokens, 64);
  EXPECT_EQ(master_->stats().unparked_blocks, 8);
}

TEST_F(ParkTest, ParkedRunSplitsIntoTwoParkedHalves) {
  CommitAndHold();
  NextScan();
  NextScan();
  ASSERT_EQ(master_->stats().parked_blocks, 4);
  // A commit that shares the first two blocks splits the parked leaf.
  std::vector<TokenId> fork(tokens_.begin(), tokens_.begin() + 32);
  for (TokenId t : Iota(32, 7000)) {
    fork.push_back(t);
  }
  auto fork_blocks = master_->AllocBlocks(4).value();
  Preserve(*master_, fork, fork_blocks);
  master_->Free(fork_blocks);
  EXPECT_EQ(master_->index_nodes(), 3u);
  // Both halves were parked: the match unparks each of them.
  const MatchInfo info = Match(*master_, tokens_);
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_EQ(info.offnpu_tokens, 64);
  EXPECT_EQ(master_->stats().unparked_blocks, 4);
}

TEST_F(ParkTest, PartialMatchUnparksTheWholeRun) {
  CommitAndHold();
  NextScan();
  NextScan();
  ASSERT_EQ(master_->stats().parked_blocks, 4);
  std::vector<TokenId> head(tokens_.begin(), tokens_.begin() + 16);
  const MatchInfo info = Match(*master_, head);
  EXPECT_EQ(info.matched_tokens, 16);
  EXPECT_EQ(info.offnpu_tokens, 16);
  EXPECT_EQ(master_->stats().unparked_blocks, 4);
  EXPECT_EQ(Match(*master_, tokens_).matched_tokens, 64);
}

TEST_F(ParkTest, ExplicitEntryDemotedToDramStillHitsById) {
  CommitAndHold(/*by_id=*/true);
  NextScan();
  NextScan();
  ASSERT_EQ(master_->stats().swapped_out_blocks, 4);
  ASSERT_EQ(master_->npu_blocks_used(), 35) << "the entry's NPU copies are gone";
  const MatchInfo info = master_->MatchByID("ctx");
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_EQ(info.npu_tokens, 0);
  EXPECT_EQ(info.offnpu_tokens, 64);
  EXPECT_EQ(info.blocks, leaf_);
}

TEST_F(RtcMasterTest, TokenHitRateTracksReuse) {
  auto tokens = Iota(64);
  Match(*master_, tokens);  // cold miss: 64 requested, 0 matched
  PrefillAndPreserve(tokens);
  Match(*master_, tokens);  // hit: 64 requested, 64 matched
  EXPECT_NEAR(master_->stats().TokenHitRate(), 0.5, 0.01);
}

}  // namespace
}  // namespace deepserve::rtc
