#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/time_units.h"
#include "common/types.h"
#include "hw/npu.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_executor.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve::rtc {
namespace {

std::vector<TokenId> Tokens(std::initializer_list<int> ids) {
  std::vector<TokenId> out;
  for (int id : ids) {
    out.push_back(static_cast<TokenId>(id));
  }
  return out;
}

std::vector<TokenId> Iota(int n, int start = 1000) {
  std::vector<TokenId> out(static_cast<size_t>(n));
  std::iota(out.begin(), out.end(), static_cast<TokenId>(start));
  return out;
}

// ---------------- ChainHash / TokensToBlockKeys ----------------

TEST(ChainHashTest, DeterministicAndChainSensitive) {
  auto a = Tokens({1, 2, 3, 4});
  EXPECT_EQ(ChainHash(0, a), ChainHash(0, a));
  EXPECT_NE(ChainHash(0, a), ChainHash(1, a));  // different chain prefix
  auto b = Tokens({1, 2, 3, 5});
  EXPECT_NE(ChainHash(0, a), ChainHash(0, b));
}

TEST(TokensToBlockKeysTest, DropsPartialTail) {
  auto tokens = Iota(35);
  auto keys = TokensToBlockKeys(tokens, 16);
  EXPECT_EQ(keys.size(), 2u);  // 35 tokens -> 2 full 16-token blocks
}

TEST(TokensToBlockKeysTest, PrefixKeysArePrefix) {
  auto tokens = Iota(64);
  auto full = TokensToBlockKeys(tokens, 16);
  auto half = TokensToBlockKeys(std::span(tokens).first(32), 16);
  ASSERT_EQ(full.size(), 4u);
  ASSERT_EQ(half.size(), 2u);
  EXPECT_EQ(full[0], half[0]);
  EXPECT_EQ(full[1], half[1]);
}

TEST(TokensToBlockKeysTest, DivergenceChangesAllLaterKeys) {
  auto a = Iota(48);
  auto b = a;
  b[20] += 1;  // diverge inside block 1
  auto ka = TokensToBlockKeys(a, 16);
  auto kb = TokensToBlockKeys(b, 16);
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
  tree.Insert(keys, 1);
  auto match = tree.Match(keys);
  EXPECT_EQ(match.matched, 3u);
  EXPECT_EQ(match.partial, nullptr);
}

TEST(RadixTreeTest, PartialMatchOnDivergence) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  tree.Insert(a, 1);
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
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  // Nodes: [1,2] shared, [3,4], [7,8].
  EXPECT_EQ(tree.NodeCount(), 3u);
  EXPECT_EQ(tree.Match(a).matched, 4u);
  EXPECT_EQ(tree.Match(b).matched, 4u);
}

TEST(RadixTreeTest, OnNewCallbackCoversExactlyNewSpans) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  std::vector<std::pair<size_t, size_t>> spans;
  tree.Insert(a, 1, [&](auto&, size_t b, size_t e) { spans.emplace_back(b, e); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], std::make_pair(size_t{0}, size_t{4}));
  // Extending by two symbols creates exactly one new node covering [4, 6).
  std::vector<BlockKey> ext = {1, 2, 3, 4, 5, 6};
  spans.clear();
  tree.Insert(ext, 2, [&](auto&, size_t b, size_t e) { spans.emplace_back(b, e); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], std::make_pair(size_t{4}, size_t{6}));
}

TEST(RadixTreeTest, SplitPreservesDepthAndParentLinks) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2, 3, 4};
  auto* leaf_a = tree.Insert(a, 1);
  EXPECT_EQ(leaf_a->depth, 4u);
  std::vector<BlockKey> b = {1, 2, 7};
  auto* leaf_b = tree.Insert(b, 2);
  EXPECT_EQ(leaf_b->depth, 3u);
  ASSERT_NE(leaf_b->parent, nullptr);
  EXPECT_EQ(leaf_b->parent->depth, 2u);
  EXPECT_EQ(leaf_b->parent, tree.Match(a).path.front());
}

TEST(RadixTreeTest, LruLeafSelection) {
  RadixTree<CountPayload> tree;
  std::vector<BlockKey> a = {1, 2};
  std::vector<BlockKey> b = {3, 4};
  tree.Insert(a, /*now=*/10);
  tree.Insert(b, /*now=*/20);
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
  auto a = pool.Allocate(4, Tier::kNpu);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(pool.free_blocks(Tier::kNpu), 0);
  EXPECT_FALSE(pool.Allocate(1, Tier::kNpu).ok());
  EXPECT_TRUE(pool.Allocate(2, Tier::kDram).ok());
}

TEST(BlockPoolTest, FailedAllocateIsAtomic) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 0});
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu).ok());
  EXPECT_FALSE(pool.Allocate(2, Tier::kNpu).ok());
  EXPECT_EQ(pool.used(Tier::kNpu), 3);
}

TEST(BlockPoolTest, UnrefDestroysPrivateBlocks) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  auto blocks = pool.Allocate(2, Tier::kNpu).value();
  pool.Unref(blocks[0]);
  EXPECT_FALSE(pool.Exists(blocks[0]));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
}

TEST(BlockPoolTest, UnrefKeepsCachedBlocks) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  auto blocks = pool.Allocate(1, Tier::kNpu).value();
  pool.SetKey(blocks[0], 0xabc);
  pool.Unref(blocks[0]);
  EXPECT_TRUE(pool.Exists(blocks[0]));
  EXPECT_EQ(pool.info(blocks[0]).ref_count, 0);
}

TEST(BlockPoolTest, ResidencyBitmaskAndCounters) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = pool.Allocate(1, Tier::kNpu).value()[0];
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_TRUE(pool.info(id).resident(Tier::kNpu));
  EXPECT_TRUE(pool.info(id).resident(Tier::kDram));
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(id, Tier::kNpu);
  EXPECT_FALSE(pool.info(id).resident(Tier::kNpu));
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Idempotent add/drop.
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(id, Tier::kNpu);
}

TEST(BlockPoolTest, DestroyReleasesAllTiers) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = pool.Allocate(1, Tier::kNpu).value()[0];
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  pool.SetKey(id, 7);
  pool.Unref(id);
  pool.Destroy(id);
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  EXPECT_EQ(pool.used(Tier::kDram), 0);
  EXPECT_FALSE(pool.Exists(id));
}

TEST(BlockPoolTest, CopyPinsCountAndStaleUnpinIsANoOp) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockId id = pool.Allocate(1, Tier::kNpu).value()[0];
  pool.Pin(id);
  pool.Pin(id);
  pool.Unpin(id);
  EXPECT_TRUE(pool.info(id).pinned());
  // A private block dies with its last ref even mid-copy; its slot is reused.
  pool.Unref(id);
  ASSERT_FALSE(pool.Exists(id));
  BlockId reused = pool.Allocate(1, Tier::kNpu).value()[0];
  EXPECT_FALSE(pool.info(reused).pinned());
  // The copy's completion unpins the dead id: the new occupant is untouched.
  pool.Pin(reused);
  pool.Unpin(id);
  EXPECT_TRUE(pool.info(reused).pinned());
  pool.Unpin(reused);
  EXPECT_FALSE(pool.info(reused).pinned());
}

TEST(BlockPoolTest, SsdIsUnbounded) {
  BlockPool pool({.npu_capacity = 1, .dram_capacity = 1});
  EXPECT_TRUE(pool.Allocate(1000, Tier::kSsd).ok());
}

// ---------------- RtcMaster ----------------

class RtcMasterTest : public ::testing::Test {
 protected:
  RtcMasterTest() { Reset(64); }
  void Reset(int64_t npu_blocks, bool background_swap = false) {
    RtcConfig config;
    config.block_size = 16;
    config.pool.npu_capacity = npu_blocks;
    config.pool.dram_capacity = 256;
    config.bytes_per_block = 1 << 20;
    config.enable_background_swap = background_swap;
    master_ = std::make_unique<RtcMaster>(&sim_, config);
  }

  // Simulates a prefill: allocate blocks for the tokens, preserve, release.
  std::vector<BlockId> PrefillAndPreserve(const std::vector<TokenId>& tokens) {
    int64_t n = static_cast<int64_t>(tokens.size()) / 16;
    auto blocks = master_->AllocBlocks(n).value();
    master_->Preserve(tokens, blocks);
    master_->Free(blocks);
    return blocks;
  }

  sim::Simulator sim_;
  std::unique_ptr<RtcMaster> master_;
};

TEST_F(RtcMasterTest, MissOnEmptyCache) {
  auto info = master_->MatchByPrefixToken(Iota(64));
  EXPECT_FALSE(info.hit());
  EXPECT_EQ(master_->stats().match_misses, 1);
}

TEST_F(RtcMasterTest, HitAfterPreserve) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  EXPECT_EQ(info.matched_tokens, 64);
  EXPECT_EQ(info.npu_tokens, 64);
  EXPECT_FALSE(info.needs_populate());
  EXPECT_EQ(master_->stats().match_hits, 1);
}

TEST_F(RtcMasterTest, PartialPrefixHit) {
  PrefillAndPreserve(Iota(64));
  auto longer = Iota(128);  // same first 64 tokens
  auto info = master_->MatchByPrefixToken(longer);
  EXPECT_EQ(info.matched_tokens, 64);
}

TEST_F(RtcMasterTest, DivergentPromptsShareOnlyCommonBlocks) {
  auto a = Iota(64);
  PrefillAndPreserve(a);
  auto b = a;
  b[40] = 7;  // diverges inside block 2
  auto info = master_->MatchByPrefixToken(b);
  EXPECT_EQ(info.matched_tokens, 32);  // blocks 0 and 1 only
}

TEST_F(RtcMasterTest, AcquirePinsAgainstEviction) {
  auto tokens = Iota(16 * 60);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
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
  EXPECT_FALSE(master_->MatchByPrefixToken(a).hit());
  EXPECT_TRUE(master_->MatchByPrefixToken(b).hit());
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
  EXPECT_EQ(master_->MatchByPrefixToken(c).matched_tokens, 64);
  EXPECT_FALSE(master_->MatchByPrefixToken(a).hit());
}

TEST_F(RtcMasterTest, MatchByIdRoundTrip) {
  auto tokens = Iota(48);
  auto blocks = master_->AllocBlocks(3).value();
  ASSERT_TRUE(master_->PreserveById("ctx-1", tokens, blocks).ok());
  master_->Free(blocks);
  auto info = master_->MatchByID("ctx-1");
  EXPECT_EQ(info.matched_tokens, 48);
  EXPECT_FALSE(master_->MatchByID("ctx-2").hit());
  EXPECT_TRUE(master_->DropById("ctx-1"));
  EXPECT_FALSE(master_->MatchByID("ctx-1").hit());
}

TEST_F(RtcMasterTest, CacheEntriesAreSortedById) {
  auto blocks = master_->AllocBlocks(3).value();
  // Insert in non-sorted id order; the snapshot must come back sorted
  // regardless of unordered_map hash order.
  ASSERT_TRUE(master_->PreserveById("ctx-b", Iota(48, 100), blocks).ok());
  ASSERT_TRUE(
      master_->PreserveById("ctx-a", Iota(32, 2000), std::span(blocks).subspan(0, 2)).ok());
  ASSERT_TRUE(
      master_->PreserveById("ctx-c", Iota(16, 40000), std::span(blocks).subspan(0, 1)).ok());
  master_->Free(blocks);
  auto entries = master_->CacheEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<std::string, int64_t>{"ctx-a", 32}));
  EXPECT_EQ(entries[1], (std::pair<std::string, int64_t>{"ctx-b", 48}));
  EXPECT_EQ(entries[2], (std::pair<std::string, int64_t>{"ctx-c", 16}));
  EXPECT_TRUE(master_->DropById("ctx-b"));
  EXPECT_EQ(master_->CacheEntries().size(), 2u);
}

TEST_F(RtcMasterTest, PreserveByIdRejectsBadInput) {
  auto blocks = master_->AllocBlocks(1).value();
  EXPECT_FALSE(master_->PreserveById("", Iota(16), blocks).ok());
  EXPECT_FALSE(master_->PreserveById("x", Iota(5), blocks).ok());  // < 1 block
  master_->Free(blocks);
}

TEST_F(RtcMasterTest, IdEntrySurvivesImplicitMatchToo) {
  auto tokens = Iota(48);
  auto blocks = master_->AllocBlocks(3).value();
  ASSERT_TRUE(master_->PreserveById("ctx", tokens, blocks).ok());
  master_->Free(blocks);
  EXPECT_TRUE(master_->MatchByPrefixToken(tokens).hit());
}

TEST_F(RtcMasterTest, CopyToDramThenEvictKeepsEntryMatchable) {
  Reset(8);
  auto tokens = Iota(64);
  auto blocks = master_->AllocBlocks(4).value();
  master_->Preserve(tokens, blocks);
  bool copied = false;
  master_->Copy(blocks, Tier::kDram, [&] { copied = true; });
  sim_.Run();
  EXPECT_TRUE(copied);
  master_->Free(blocks);
  // Fill the NPU: the DRAM-backed entry gets demoted, not discarded.
  ASSERT_TRUE(master_->AllocBlocks(8).ok());
  auto info = master_->MatchByPrefixToken(tokens);
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
  master_->Preserve(tokens, blocks);
  master_->Copy(blocks, Tier::kDram, nullptr);
  sim_.Run();
  master_->Free(blocks);
  auto filler = master_->AllocBlocks(8).value();  // forces NPU drop
  master_->Free(filler);
  auto info = master_->MatchByPrefixToken(tokens);
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
  auto again = master_->MatchByPrefixToken(tokens);
  EXPECT_EQ(again.npu_tokens, 64);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, PopulateOfResidentBlocksIsInstantlyReady) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  master_->Acquire(info.blocks);
  auto ticket = master_->Populate(info);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(master_->QueryPopulate(*ticket), PopulateState::kReady);
  master_->Free(info.blocks);
}

TEST_F(RtcMasterTest, QueryUnknownTicket) {
  EXPECT_EQ(master_->QueryPopulate(9999), PopulateState::kUnknown);
}

TEST_F(RtcMasterTest, TruncateMatchRecomputesResidency) {
  auto tokens = Iota(64);
  PrefillAndPreserve(tokens);
  auto info = master_->MatchByPrefixToken(tokens);
  auto cut = master_->TruncateMatch(info, 40);  // not block aligned -> 32
  EXPECT_EQ(cut.matched_tokens, 32);
  EXPECT_EQ(cut.blocks.size(), 2u);
  EXPECT_EQ(cut.npu_tokens, 32);
  EXPECT_EQ(cut.offnpu_tokens, 0);
}

TEST_F(RtcMasterTest, PrefixCachingDisabled) {
  RtcConfig config;
  config.pool.npu_capacity = 16;
  config.enable_prefix_caching = false;
  RtcMaster master(&sim_, config);
  auto tokens = Iota(64);
  auto blocks = master.AllocBlocks(4).value();
  master.Preserve(tokens, blocks);
  master.Free(blocks);
  EXPECT_FALSE(master.MatchByPrefixToken(tokens).hit());
}

TEST_F(RtcMasterTest, BackgroundSwapDemotesColdBlocks) {
  Reset(16, /*background_swap=*/true);
  // Fill most of the NPU with cold cache (above the 0.85 watermark).
  PrefillAndPreserve(Iota(16 * 7, 0));
  PrefillAndPreserve(Iota(16 * 7, 90000));
  sim_.RunUntil(sim_.Now() + SToNs(2));
  EXPECT_GT(master_->stats().swapped_out_blocks, 0);
  // Entries remain matchable after demotion.
  EXPECT_TRUE(master_->MatchByPrefixToken(Iota(16 * 7, 0)).hit());
}

// A fleet-shaped swap setup: `cold` single-block cached leaves plus enough
// held private blocks to keep NPU usage above the swap watermark after the
// cold leaves are demoted, so the swapper keeps scanning every interval.
class SwapScanTest : public ::testing::Test {
 protected:
  void Build(int64_t dram_blocks, int cold) {
    RtcConfig config;
    config.block_size = 16;
    config.pool.npu_capacity = 40;
    config.pool.dram_capacity = dram_blocks;
    config.enable_background_swap = true;
    master_ = std::make_unique<RtcMaster>(&sim_, config);
    for (int i = 0; i < cold; ++i) {
      auto blocks = master_->AllocBlocks(1).value();
      master_->Preserve(Iota(16, 1000 * (i + 1)), blocks);
      master_->Free(blocks);
    }
  }

  // Runs one swap interval (scans fire at multiples of 50 ms).
  void NextScan() {
    next_ += master_->config().swap_interval;
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
  master_->Preserve(pinned_tokens, pinned);
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
  rtc::MatchInfo info = master_->MatchByPrefixToken(pinned_tokens);
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
  master_->Preserve(leaf_tokens, leaf);
  master_->Free(leaf);
  // An explicit checkpoint of the first block only: the leaf is partly in
  // DRAM, so no swap can take it, but it is not fully demoted either.
  EXPECT_EQ(master_->Copy(std::span<const BlockId>(leaf.data(), 1), Tier::kDram, nullptr), 1);
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
  master_->Preserve(fork, fork_blocks);
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

TEST_F(RtcMasterTest, TokenHitRateTracksReuse) {
  auto tokens = Iota(64);
  master_->MatchByPrefixToken(tokens);  // cold miss: 64 requested, 0 matched
  PrefillAndPreserve(tokens);
  master_->MatchByPrefixToken(tokens);  // hit: 64 requested, 64 matched
  EXPECT_NEAR(master_->stats().TokenHitRate(), 0.5, 0.01);
}

TEST(RtcExecutorTest, MirrorsBlockTrafficOntoNpu) {
  sim::Simulator sim;
  hw::Npu npu(0, 0, hw::NpuSpec::Gen2());
  RtcConfig config;
  config.pool.npu_capacity = 128;
  config.bytes_per_block = 4 << 20;
  RtcMaster master(&sim, config);
  RtcExecutor executor(&npu, config.bytes_per_block);
  master.AddListener(&executor);
  auto blocks = master.AllocBlocks(10).value();
  EXPECT_EQ(npu.hbm_used(), 40ull << 20);
  master.Free(blocks);
  EXPECT_EQ(npu.hbm_used(), 0u);
}

}  // namespace
}  // namespace deepserve::rtc
