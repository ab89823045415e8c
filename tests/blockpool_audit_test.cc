// BlockPool invariant audit: a randomized operation stream (allocate, pin,
// commit, tier-promote, unref, evict) checked after every step against a
// shadow model. The audited invariants:
//   * per-tier used() equals the number of live blocks resident on the tier,
//     and never exceeds capacity;
//   * ref_count never goes negative; an unreferenced *uncached* block is
//     destroyed immediately, an unreferenced cached block is preserved until
//     evicted;
//   * failed Allocate/AddResidency calls leave the pool untouched (no
//     partial allocation);
//   * a destroyed block's id never resolves again, even once its slot holds
//     a new block, and neither does any negative id;
//   * under RtcMaster churn, every slot a radix-tree block run holds stays
//     live (BlockPool::IdAt aborts otherwise), a run holds a slot for every
//     block or for none (parked), and a parked run's blocks stay counted in
//     DRAM.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve::rtc {
namespace {

struct ShadowBlock {
  int32_t ref = 0;
  uint8_t residency = 0;
  bool cached = false;
};

class Audit {
 public:
  Audit(BlockPool* pool, std::map<BlockId, ShadowBlock>* shadow)
      : pool_(pool), shadow_(shadow) {}

  void Check() const {
    int64_t used[2] = {0, 0};
    for (const auto& [id, sb] : *shadow_) {
      ASSERT_TRUE(pool_->Exists(id)) << "block " << id << " vanished";
      const BlockInfo& info = pool_->info(id);
      EXPECT_EQ(info.ref_count, sb.ref) << "block " << id;
      EXPECT_GE(info.ref_count, 0) << "block " << id;
      EXPECT_EQ(info.residency, sb.residency) << "block " << id;
      EXPECT_EQ(info.cached(), sb.cached) << "block " << id;
      for (Tier tier : {Tier::kNpu, Tier::kDram}) {
        if (info.resident(tier)) {
          ++used[static_cast<size_t>(tier)];
        }
      }
      // The preservation rule: a block with no references exists only if it
      // was committed to the cache index.
      if (sb.ref == 0) {
        EXPECT_TRUE(sb.cached) << "unreferenced private block " << id << " survived";
      }
    }
    EXPECT_EQ(pool_->total_blocks(), shadow_->size());
    for (Tier tier : {Tier::kNpu, Tier::kDram}) {
      EXPECT_EQ(pool_->used(tier), used[static_cast<size_t>(tier)])
          << "tier " << TierToString(tier) << " accounting drifted";
      EXPECT_LE(pool_->used(tier), pool_->capacity(tier));
      EXPECT_EQ(pool_->free_blocks(tier), pool_->capacity(tier) - pool_->used(tier));
    }
  }

 private:
  BlockPool* pool_;
  std::map<BlockId, ShadowBlock>* shadow_;
};

BlockId PickLive(Rng& rng, const std::map<BlockId, ShadowBlock>& shadow) {
  if (shadow.empty()) {
    return kInvalidBlock;
  }
  auto it = shadow.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
  return it->first;
}

TEST(BlockPoolAuditTest, RandomOpStreamPreservesInvariants) {
  for (uint64_t seed : {2ull, 29ull, 400ull}) {
    BlockPoolConfig config;
    config.npu_capacity = 24;
    config.dram_capacity = 32;
    BlockPool pool(config);
    std::map<BlockId, ShadowBlock> shadow;
    Audit audit(&pool, &shadow);
    Rng rng(seed);

    for (int step = 0; step < 2000; ++step) {
      switch (rng.UniformInt(0, 6)) {
        case 0: {  // allocate 1..4 private blocks on a random tier
          Tier tier = static_cast<Tier>(rng.UniformInt(0, 1));
          int64_t n = rng.UniformInt(1, 4);
          int64_t used_before = pool.used(tier);
          std::vector<BlockId> ids;
          Status status = pool.Allocate(n, tier, &ids);
          if (status.ok()) {
            for (BlockId id : ids) {
              shadow[id] = ShadowBlock{1, TierBit(tier), false};
            }
          } else {
            EXPECT_TRUE(ids.empty()) << "failed Allocate returned ids";
            EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
            EXPECT_GT(pool.used(tier) + n, pool.capacity(tier));
            EXPECT_EQ(pool.used(tier), used_before) << "failed Allocate leaked blocks";
          }
          break;
        }
        case 1: {  // pin
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock) {
            pool.Ref(id);
            ++shadow[id].ref;
          }
          break;
        }
        case 2: {  // unref: uncached blocks die at zero, cached are preserved
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock && shadow[id].ref > 0) {
            pool.Unref(id);
            ShadowBlock& sb = shadow[id];
            if (--sb.ref == 0 && !sb.cached) {
              shadow.erase(id);
              EXPECT_FALSE(pool.Exists(id));
            }
          }
          break;
        }
        case 3: {  // commit: private -> cached content block
          BlockId id = PickLive(rng, shadow);
          if (id != kInvalidBlock && !shadow[id].cached) {
            pool.MarkCached(id);
            shadow[id].cached = true;
          }
          break;
        }
        case 4: {  // tier-promote / add residency copy
          BlockId id = PickLive(rng, shadow);
          if (id == kInvalidBlock) {
            break;
          }
          Tier tier = static_cast<Tier>(rng.UniformInt(0, 1));
          int64_t used_before = pool.used(tier);
          Status status = pool.AddResidency(id, tier);
          if (status.ok()) {
            shadow[id].residency |= TierBit(tier);
          } else {
            EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
            EXPECT_EQ(pool.used(tier), used_before);
            EXPECT_FALSE((shadow[id].residency & TierBit(tier)) != 0)
                << "AddResidency failed on an already-resident block";
          }
          break;
        }
        case 5: {  // drop one residency copy (demote)
          BlockId id = PickLive(rng, shadow);
          if (id == kInvalidBlock) {
            break;
          }
          Tier tier = static_cast<Tier>(rng.UniformInt(0, 1));
          pool.DropResidency(id, tier);
          shadow[id].residency &= static_cast<uint8_t>(~TierBit(tier));
          break;
        }
        case 6: {  // evict: destroy an unreferenced cached block
          BlockId victim = kInvalidBlock;
          for (const auto& [id, sb] : shadow) {
            if (sb.ref == 0) {
              victim = id;
              break;
            }
          }
          if (victim != kInvalidBlock) {
            pool.Destroy(victim);
            shadow.erase(victim);
            EXPECT_FALSE(pool.Exists(victim));
          }
          break;
        }
      }
      audit.Check();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    // The stream must have actually exercised the interesting paths.
    EXPECT_GT(shadow.size(), 0u);
  }
}

TEST(BlockPoolAuditTest, ExhaustedTierRejectsWithoutPartialAllocation) {
  BlockPoolConfig config;
  config.npu_capacity = 4;
  config.dram_capacity = 4;
  BlockPool pool(config);
  std::vector<BlockId> ids;
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu, &ids).ok());
  Status b = pool.Allocate(2, Tier::kNpu, &ids);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ids.size(), 3u) << "failed allocation returned ids";
  EXPECT_EQ(pool.used(Tier::kNpu), 3) << "failed allocation changed usage";
  EXPECT_EQ(pool.total_blocks(), 3u);
}

TEST(BlockPoolAuditTest, PromoteThenDemoteKeepsOneCopyAccounted) {
  BlockPool pool(BlockPoolConfig{});
  std::vector<BlockId> ids;
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &ids).ok());
  BlockId id = ids[0];
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_TRUE(pool.info(id).resident(Tier::kNpu));
  EXPECT_TRUE(pool.info(id).resident(Tier::kDram));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  // Re-adding an existing copy is a no-op, not a double count.
  ASSERT_TRUE(pool.AddResidency(id, Tier::kDram).ok());
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(id, Tier::kNpu);
  EXPECT_FALSE(pool.info(id).resident(Tier::kNpu));
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Dropping a non-resident tier is a no-op.
  pool.DropResidency(id, Tier::kNpu);
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Unref of the (uncached) block releases its remaining DRAM copy.
  pool.Unref(id);
  EXPECT_FALSE(pool.Exists(id));
  EXPECT_EQ(pool.used(Tier::kDram), 0);
}

// An id with bit 63 set: negative, so it must never resolve.
BlockId WithBit63(BlockId id) {
  return static_cast<BlockId>(static_cast<uint64_t>(id) | (uint64_t{1} << 63));
}

TEST(BlockPoolAuditTest, ReusedSlotNeverResolvesTheOldId) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  std::vector<BlockId> ids;
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &ids).ok());
  const BlockId old_id = ids[0];
  EXPECT_EQ(pool.IdAt(BlockPool::SlotOf(old_id)), old_id);
  pool.MarkCached(old_id);
  pool.Unref(old_id);
  ASSERT_TRUE(pool.Exists(old_id)) << "a cached block outlives its last ref";
  pool.Destroy(old_id);
  EXPECT_FALSE(pool.Exists(old_id));

  ids.clear();
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &ids).ok());
  const BlockId new_id = ids[0];
  ASSERT_EQ(BlockPool::SlotOf(new_id), BlockPool::SlotOf(old_id)) << "the slot was not reused";
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(pool.Exists(old_id));
  EXPECT_TRUE(pool.Exists(new_id));
  EXPECT_EQ(pool.IdAt(BlockPool::SlotOf(new_id)), new_id);
  EXPECT_FALSE(pool.info(new_id).cached()) << "the new occupant inherited the cached flag";

  // A copy of the old block completing now must not touch the new occupant.
  pool.Pin(new_id);
  pool.Unpin(old_id);
  EXPECT_EQ(pool.info(new_id).pins, 1);
  pool.Unpin(new_id);

  // Negative ids never resolve, whatever the slot they point at holds.
  EXPECT_FALSE(pool.Exists(kInvalidBlock));
  EXPECT_FALSE(pool.Exists(WithBit63(new_id)));
  EXPECT_FALSE(pool.Exists(WithBit63(old_id)));
  ids.clear();
  ASSERT_TRUE(pool.Allocate(2, Tier::kDram, &ids).ok());
  pool.Unref(ids[1]);  // leaves a free slot at generation 2
  EXPECT_FALSE(pool.Exists(WithBit63(ids[0])));
  EXPECT_FALSE(pool.Exists(WithBit63(ids[1])));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
}

// A prompt of `n_blocks` full blocks whose first `shared` blocks are common to
// every prompt of `family`; the rest are drawn from `rng`.
std::vector<TokenId> ChurnPrompt(Rng& rng, int64_t family, int64_t shared, int64_t n_blocks) {
  std::vector<TokenId> tokens;
  for (int64_t b = 0; b < n_blocks; ++b) {
    for (int t = 0; t < kBlockTokens; ++t) {
      int64_t token = b < shared ? family * 1000 + b * kBlockTokens + t : rng.UniformInt(1, 7);
      tokens.push_back(static_cast<TokenId>(token));
    }
  }
  return tokens;
}

// Seeded churn over an RtcMaster with a small NPU tier: sequences match a
// shared prefix, pin and populate it, allocate the rest, commit, and die, and
// earlier prompts come back to rematch their leaves, parked or not. Allocation
// pressure and explicit EnsureNpuFree calls drive both of its passes (the drop
// pass parks the runs it demotes), and the background swapper demotes,
// retires and parks as simulated time passes. Every tree walk resolves its
// run's slots through BlockPool::IdAt, which aborts on a slot that is not
// live. After every step the pool's ref counts match the sequences' pins, no
// tier is over capacity, and the DRAM tier still counts every parked block.
TEST(BlockPoolAuditTest, RtcChurnKeepsEveryTreeSlotLive) {
  for (uint64_t seed : {3ull, 17ull, 91ull}) {
    sim::Simulator sim;
    RtcConfig config;
    config.pool.npu_capacity = 40;
    config.pool.dram_capacity = 24;
    RtcMaster master(&sim, config);
    std::vector<std::vector<BlockId>> seqs;
    std::vector<std::vector<TokenId>> committed;  // prompts to rematch
    std::map<BlockId, int32_t> refs;
    Rng rng(seed);

    auto pin = [&](std::span<const BlockId> blocks, int32_t delta) {
      for (BlockId id : blocks) {
        if ((refs[id] += delta) == 0) {
          refs.erase(id);
        }
      }
    };
    auto admit = [&](const std::vector<TokenId>& prompt) {
      const KeyChain keys = KeyChain::Hash(prompt);
      MatchInfo match = master.MatchByPrefixToken(prompt, keys.span());
      master.Acquire(match.blocks);
      pin(match.blocks, 1);
      std::vector<BlockId> blocks = match.blocks;
      bool ok = true;
      if (match.needs_populate()) {
        ok = master.Populate(match).ok();
      }
      ok = ok && master.AllocBlocks(static_cast<int64_t>(keys.size() - blocks.size()),
                                    &blocks).ok();
      pin(std::span<const BlockId>(blocks).subspan(match.blocks.size()), 1);
      if (!ok) {
        master.Free(blocks);
        pin(blocks, -1);
        return;
      }
      master.Preserve(prompt, blocks, keys);
      seqs.push_back(std::move(blocks));
      if (committed.size() < 32) {
        committed.push_back(prompt);
      } else {
        committed[static_cast<size_t>(rng.UniformInt(0, 31))] = prompt;
      }
    };
    for (int step = 0; step < 3000; ++step) {
      int64_t op = rng.UniformInt(0, 6);
      if (op <= 1 && seqs.size() < 6) {  // admit a sequence
        admit(ChurnPrompt(rng, rng.UniformInt(0, 3), rng.UniformInt(0, 6), rng.UniformInt(1, 8)));
      } else if (op == 2 && seqs.size() < 6 && !committed.empty()) {  // rematch a prompt
        size_t pick =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(committed.size()) - 1));
        admit(std::vector<TokenId>(committed[pick]));
      } else if (op == 3 && !seqs.empty()) {  // finish a sequence
        size_t victim = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(seqs.size()) - 1));
        master.Free(seqs[victim]);
        pin(seqs[victim], -1);
        seqs.erase(seqs.begin() + static_cast<ptrdiff_t>(victim));
      } else if (op == 4) {  // demand NPU room: the drop pass parks what it demotes
        int64_t n = rng.UniformInt(1, 8);
        bool freed = master.EnsureNpuFree(n).ok();
        EXPECT_EQ(freed, master.npu_blocks_free() >= n) << "step " << step;
      } else {  // let copies land and the swapper run
        sim.RunUntil(sim.Now() + MsToNs(static_cast<double>(rng.UniformInt(1, 3))));
      }

      for (const auto& [id, n] : refs) {
        ASSERT_TRUE(master.pool().Exists(id)) << "seed " << seed << " step " << step;
        EXPECT_EQ(master.pool().info(id).ref_count, n) << "block " << id;
      }
      EXPECT_LE(master.pool().used(Tier::kNpu), master.pool().capacity(Tier::kNpu));
      EXPECT_LE(master.pool().used(Tier::kDram), master.pool().capacity(Tier::kDram));
      const RtcStats& stats = master.stats();
      EXPECT_GE(master.pool().used(Tier::kDram), stats.parked_blocks - stats.unparked_blocks)
          << "step " << step;
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    for (const std::vector<BlockId>& blocks : seqs) {
      master.Free(blocks);
      pin(blocks, -1);
    }
    sim.RunUntil(sim.Now() + MsToNs(100));
    EXPECT_TRUE(refs.empty());
    // Every committed prompt still matches through live slots.
    for (const std::vector<TokenId>& prompt : committed) {
      MatchInfo match = master.MatchByPrefixToken(prompt, TokensToBlockKeys(prompt));
      for (BlockId id : match.blocks) {
        EXPECT_TRUE(master.pool().Exists(id));
        EXPECT_EQ(master.pool().info(id).ref_count, 0);
      }
    }
    // The churn reached every path that walks, frees or parks tree slots.
    const RtcStats& stats = master.stats();
    EXPECT_GT(stats.match_hits, 0) << "seed " << seed;
    EXPECT_GT(stats.populates, 0) << "seed " << seed;
    EXPECT_GT(stats.swapped_out_blocks, 0) << "seed " << seed;
    EXPECT_GT(stats.evicted_blocks, 0) << "seed " << seed << ": EnsureNpuFree pass 1";
    EXPECT_GT(stats.discarded_blocks, 0) << "seed " << seed << ": EnsureNpuFree pass 2";
    EXPECT_GT(stats.parked_blocks, 0) << "seed " << seed;
    EXPECT_GT(stats.unparked_blocks, 0) << "seed " << seed << ": a rematch of a parked run";
  }
}

}  // namespace
}  // namespace deepserve::rtc
