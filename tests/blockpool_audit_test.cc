// BlockPool invariant audit: seeded random streams of extent operations
// (allocate, ref, unref, commit, pin, unpin, tier copies, park, unpark,
// destroy), each checked after every step against a per-block reference
// model written here. The audited invariants:
//   * every live block's record (refs, pins, residency, flags) matches the
//     model's, per-tier used() equals the model's count (parked blocks
//     included), and no tier exceeds its capacity;
//   * an unreferenced *uncached* block is destroyed immediately, an
//     unreferenced cached block is preserved until evicted;
//   * Allocate takes the first free range that covers the request, else as
//     few of the largest free ranges as cover it, from free ranges that are
//     coalesced; the slab never holds more slots than the peak live block
//     count;
//   * failed Allocate calls leave the pool untouched (no partial
//     allocation), and AddResidency stops where its tier fills;
//   * a destroyed block's id never resolves again, even once its slot holds
//     a new block, an unpin by such an id changes nothing, and no negative id
//     resolves;
//   * under RtcMaster churn, every block a radix-tree run holds stays live,
//     a run holds one block per edge symbol or none (parked), and a parked
//     run's blocks stay counted in DRAM.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time_units.h"
#include "rtc/block_pool.h"
#include "rtc/radix_tree.h"
#include "rtc/rtc_master.h"
#include "sim/simulator.h"

namespace deepserve::rtc {
namespace {

uint32_t SlotOf(BlockId id) { return static_cast<uint32_t>(static_cast<uint64_t>(id)); }

std::vector<BlockId> Ids(const BlockTable& table) {
  std::vector<BlockId> ids;
  for (const Extent& extent : table.extents()) {
    for (BlockId id = extent.first; id < extent.end(); ++id) {
      ids.push_back(id);
    }
  }
  return ids;
}

// The per-block reference: every live block's record, the per-tier used
// counts, and the parked blocks (counted in DRAM, with no record).
struct Model {
  std::map<BlockId, BlockInfo> blocks;
  int64_t used[2] = {0, 0};
  int64_t parked = 0;

  void Uncount(const BlockInfo& info) {
    for (Tier tier : {Tier::kNpu, Tier::kDram}) {
      used[static_cast<size_t>(tier)] -= info.resident(tier) ? 1 : 0;
    }
  }
};

// A random extent of live blocks: a sub-run of the run of consecutive ids
// around a random live block, so it may span blocks of several allocations.
Extent PickExtent(Rng& rng, const Model& model) {
  if (model.blocks.empty()) {
    return {};
  }
  auto it = model.blocks.begin();
  std::advance(it, rng.UniformInt(0, static_cast<int64_t>(model.blocks.size()) - 1));
  BlockId lo = it->first;
  BlockId hi = it->first + 1;
  while (model.blocks.contains(lo - 1)) {
    --lo;
  }
  while (model.blocks.contains(hi)) {
    ++hi;
  }
  const BlockId first = lo + rng.UniformInt(0, hi - lo - 1);
  return {first, static_cast<uint32_t>(rng.UniformInt(1, hi - first))};
}

// The longest prefix of `extent` whose every block satisfies `pred`.
template <typename Pred>
Extent PrefixWhere(const Model& model, Extent extent, Pred pred) {
  uint32_t n = 0;
  while (n < extent.count && pred(model.blocks.at(extent.first + n))) {
    ++n;
  }
  return {extent.first, n};
}

// The ranges Allocate(n) must take, in order, given the slab's free slots:
// the first free range that covers n, else (after growing the slab by what
// the free ranges lack) the largest ranges first, ties to the lowest address.
std::vector<std::pair<uint32_t, uint32_t>> ExpectedTakes(const Model& model, size_t slab,
                                                         int64_t n) {
  std::vector<std::pair<uint32_t, uint32_t>> free;
  std::set<uint32_t> live;
  for (const auto& [id, info] : model.blocks) {
    live.insert(SlotOf(id));
  }
  for (uint32_t slot = 0; slot < slab; ++slot) {
    if (live.contains(slot)) {
      continue;
    }
    if (!free.empty() && free.back().first + free.back().second == slot) {
      ++free.back().second;
    } else {
      free.emplace_back(slot, 1);
    }
  }
  for (const auto& [first, count] : free) {
    if (count >= n) {
      return {{first, static_cast<uint32_t>(n)}};
    }
  }
  int64_t total = 0;
  for (const auto& range : free) {
    total += range.second;
  }
  if (total < n) {
    const auto grow = static_cast<uint32_t>(n - total);
    if (!free.empty() && free.back().first + free.back().second == slab) {
      free.back().second += grow;
    } else {
      free.emplace_back(static_cast<uint32_t>(slab), grow);
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> takes;
  while (n > 0) {
    auto best = std::max_element(free.begin(), free.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;
    });
    const auto take = static_cast<uint32_t>(std::min<int64_t>(n, best->second));
    takes.emplace_back(best->first, take);
    n -= take;
    free.erase(best);
  }
  return takes;
}

void ExpectMatches(const BlockPool& pool, const Model& model, const std::set<BlockId>& stale) {
  for (const auto& [id, want] : model.blocks) {
    ASSERT_TRUE(pool.Exists(id)) << "block " << id << " vanished";
    const BlockInfo& info = pool.info(id);
    EXPECT_EQ(info.ref_count, want.ref_count) << "block " << id;
    EXPECT_EQ(info.pins, want.pins) << "block " << id;
    EXPECT_EQ(info.residency, want.residency) << "block " << id;
    EXPECT_EQ(info.flags, want.flags) << "block " << id;
    // The preservation rule: a block with no references exists only if it
    // was committed to the cache index.
    if (want.ref_count == 0) {
      EXPECT_TRUE(info.cached()) << "unreferenced private block " << id << " survived";
    }
  }
  EXPECT_EQ(pool.total_blocks(), model.blocks.size());
  for (Tier tier : {Tier::kNpu, Tier::kDram}) {
    EXPECT_EQ(pool.used(tier), model.used[static_cast<size_t>(tier)])
        << "tier " << TierToString(tier) << " accounting drifted";
    EXPECT_LE(pool.used(tier), pool.capacity(tier));
  }
  for (BlockId id : stale) {
    EXPECT_FALSE(pool.Exists(id)) << "destroyed block " << id << " resolves again";
  }
}

TEST(BlockPoolAuditTest, ExtentOpsMatchAPerBlockReferenceModel) {
  for (uint64_t seed : {2ull, 29ull, 400ull}) {
    BlockPool pool({.npu_capacity = 48, .dram_capacity = 20});
    Model model;
    std::set<BlockId> stale;  // destroyed and parked ids
    size_t peak_live = 0;
    int64_t split_allocations = 0;
    int64_t stale_unpins = 0;
    Rng rng(seed);

    for (int step = 0; step < 3000; ++step) {
      const Extent pick = PickExtent(rng, model);
      switch (rng.UniformInt(0, 11)) {
        case 0:
        case 1: {  // allocate 1..10 private blocks on a random tier
          const Tier tier = static_cast<Tier>(rng.UniformInt(0, 1));
          const int64_t n = rng.UniformInt(1, 10);
          const auto expected = ExpectedTakes(model, pool.slab_slots(), n);
          BlockTable table;
          const Status status = pool.Allocate(n, tier, &table);
          if (!status.ok()) {
            EXPECT_TRUE(table.empty()) << "failed Allocate returned blocks";
            EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
            EXPECT_GT(model.used[static_cast<size_t>(tier)] + n, pool.capacity(tier));
            break;
          }
          ASSERT_EQ(table.extents().size(), expected.size()) << "step " << step;
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(SlotOf(table.extents()[i].first), expected[i].first) << "step " << step;
            EXPECT_EQ(table.extents()[i].count, expected[i].second) << "step " << step;
          }
          split_allocations += expected.size() > 1 ? 1 : 0;
          const std::vector<BlockId> ids = Ids(table);
          for (BlockId id : ids) {
            EXPECT_FALSE(stale.contains(id)) << "a new block reuses a dead id";
            model.blocks[id] = BlockInfo{.ref_count = 1, .residency = TierBit(tier)};
          }
          model.used[static_cast<size_t>(tier)] += n;
          // Splitting the table anywhere keeps each block on its side.
          const auto at = static_cast<size_t>(rng.UniformInt(0, n));
          BlockTable head = table;
          const BlockTable tail = head.SplitTail(at);
          EXPECT_EQ(Ids(head), std::vector<BlockId>(ids.begin(), ids.begin() + at));
          EXPECT_EQ(Ids(tail), std::vector<BlockId>(ids.begin() + at, ids.end()));
          head.Append(tail);
          EXPECT_EQ(head, table);
          const auto end = static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(at), n));
          EXPECT_EQ(Ids(table.Slice(at, end)),
                    std::vector<BlockId>(ids.begin() + at, ids.begin() + end));
          break;
        }
        case 2: {  // ref
          if (pick.count > 0) {
            pool.Ref(pick);
            for (BlockId id = pick.first; id < pick.end(); ++id) {
              ++model.blocks.at(id).ref_count;
            }
          }
          break;
        }
        case 3: {  // unref a prefix: uncached blocks die at zero
          const Extent held =
              PrefixWhere(model, pick, [](const BlockInfo& info) { return info.ref_count > 0; });
          if (held.count == 0) {
            break;
          }
          pool.Unref(held);
          for (BlockId id = held.first; id < held.end(); ++id) {
            BlockInfo& info = model.blocks.at(id);
            if (--info.ref_count == 0 && !info.cached()) {
              model.Uncount(info);
              model.blocks.erase(id);
              stale.insert(id);
            }
          }
          break;
        }
        case 4: {  // commit (sometimes into an id index too)
          if (pick.count == 0) {
            break;
          }
          const bool indexed = rng.UniformInt(0, 4) == 0;
          pool.MarkCached(pick);
          if (indexed) {
            pool.MarkIndexed(pick);
          }
          for (BlockId id = pick.first; id < pick.end(); ++id) {
            model.blocks.at(id).flags |= kBlockCommitted | (indexed ? kBlockIndexed : 0);
          }
          break;
        }
        case 5: {  // pin, or unpin a pinned prefix
          if (pick.count == 0) {
            break;
          }
          if (rng.UniformInt(0, 1) == 0) {
            pool.Pin(pick);
            for (BlockId id = pick.first; id < pick.end(); ++id) {
              ++model.blocks.at(id).pins;
            }
            break;
          }
          const Extent pinned =
              PrefixWhere(model, pick, [](const BlockInfo& info) { return info.pins > 0; });
          pool.Unpin(pinned);
          for (BlockId id = pinned.first; id < pinned.end(); ++id) {
            --model.blocks.at(id).pins;
          }
          break;
        }
        case 6:
        case 7: {  // add a tier copy: stops where the tier fills
          if (pick.count == 0) {
            break;
          }
          const Tier tier = static_cast<Tier>(rng.UniformInt(0, 1));
          int64_t& used = model.used[static_cast<size_t>(tier)];
          std::vector<BlockId> want;
          for (BlockId id = pick.first; id < pick.end() && used < pool.capacity(tier); ++id) {
            BlockInfo& info = model.blocks.at(id);
            if (!info.resident(tier)) {
              info.residency |= TierBit(tier);
              ++used;
              want.push_back(id);
            }
          }
          BlockTable added;
          pool.AddResidency(pick, tier, &added);
          EXPECT_EQ(Ids(added), want) << "step " << step;
          break;
        }
        case 8: {  // drop a tier copy
          if (pick.count == 0) {
            break;
          }
          const Tier tier = static_cast<Tier>(rng.UniformInt(0, 1));
          pool.DropResidency(pick, tier);
          for (BlockId id = pick.first; id < pick.end(); ++id) {
            BlockInfo& info = model.blocks.at(id);
            if (info.resident(tier)) {
              info.residency &= static_cast<uint8_t>(~TierBit(tier));
              --model.used[static_cast<size_t>(tier)];
            }
          }
          break;
        }
        case 9: {  // park a parkable prefix, or unpark some parked blocks
          if (rng.UniformInt(0, 1) == 0 && model.parked > 0) {
            const int64_t n = rng.UniformInt(1, model.parked);
            BlockTable table;
            pool.Unpark(n, &table);
            for (BlockId id : Ids(table)) {
              EXPECT_FALSE(stale.contains(id)) << "an unparked block reuses a dead id";
              model.blocks[id] =
                  BlockInfo{.residency = TierBit(Tier::kDram), .flags = kBlockCommitted};
            }
            EXPECT_EQ(table.size(), static_cast<size_t>(n));
            model.parked -= n;
            break;
          }
          if (pick.count == 0) {
            break;
          }
          const Extent parkable =
              PrefixWhere(model, pick, [](const BlockInfo& info) { return info.parkable(); });
          if (parkable.count == 0) {
            break;
          }
          pool.Park(parkable);
          for (BlockId id = parkable.first; id < parkable.end(); ++id) {
            model.blocks.erase(id);
            stale.insert(id);
          }
          model.parked += parkable.count;
          break;
        }
        case 10: {  // destroy an unreferenced prefix (eviction)
          if (pick.count == 0) {
            break;
          }
          const Extent victim = PrefixWhere(
              model, pick, [](const BlockInfo& info) { return info.ref_count == 0; });
          if (victim.count == 0) {
            break;
          }
          pool.Destroy(victim);
          for (BlockId id = victim.first; id < victim.end(); ++id) {
            model.Uncount(model.blocks.at(id));
            model.blocks.erase(id);
            stale.insert(id);
          }
          break;
        }
        case 11: {  // a copy of a dead block lands: its unpin changes nothing
          if (stale.empty()) {
            break;
          }
          auto it = stale.begin();
          std::advance(it, rng.UniformInt(0, static_cast<int64_t>(stale.size()) - 1));
          uint32_t n = 1;  // a run of dead ids, as a copy's extent would be
          while (n < 3 && stale.contains(*it + n)) {
            ++n;
          }
          pool.Unpin({*it, n});
          ++stale_unpins;
          break;
        }
      }
      ExpectMatches(pool, model, stale);
      peak_live = std::max(peak_live, pool.total_blocks());
      EXPECT_LE(pool.slab_slots(), peak_live) << "the slab outgrew the peak live count";
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    // The stream must have actually exercised the interesting paths.
    EXPECT_GT(model.blocks.size(), 0u) << "seed " << seed;
    EXPECT_GT(split_allocations, 0) << "seed " << seed << ": no allocation spanned ranges";
    EXPECT_GT(stale_unpins, 0) << "seed " << seed;
    EXPECT_GT(pool.range_takes(), 0) << "seed " << seed;
  }
}

TEST(BlockPoolAuditTest, ExhaustedTierRejectsWithoutPartialAllocation) {
  BlockPoolConfig config;
  config.npu_capacity = 4;
  config.dram_capacity = 4;
  BlockPool pool(config);
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(3, Tier::kNpu, &blocks).ok());
  Status b = pool.Allocate(2, Tier::kNpu, &blocks);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(blocks.size(), 3u) << "failed allocation returned blocks";
  EXPECT_EQ(pool.used(Tier::kNpu), 3) << "failed allocation changed usage";
  EXPECT_EQ(pool.total_blocks(), 3u);
}

TEST(BlockPoolAuditTest, PromoteThenDemoteKeepsOneCopyAccounted) {
  BlockPool pool(BlockPoolConfig{});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &blocks).ok());
  const Extent block = blocks.extents()[0];
  const BlockId id = block.first;
  BlockTable added;
  pool.AddResidency(block, Tier::kDram, &added);
  EXPECT_EQ(added, blocks);
  EXPECT_TRUE(pool.info(id).resident(Tier::kNpu));
  EXPECT_TRUE(pool.info(id).resident(Tier::kDram));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  // Re-adding an existing copy is a no-op, not a double count.
  added.clear();
  pool.AddResidency(block, Tier::kDram, &added);
  EXPECT_TRUE(added.empty());
  EXPECT_EQ(pool.used(Tier::kDram), 1);
  pool.DropResidency(block, Tier::kNpu);
  EXPECT_FALSE(pool.info(id).resident(Tier::kNpu));
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Dropping a non-resident tier is a no-op.
  pool.DropResidency(block, Tier::kNpu);
  EXPECT_EQ(pool.used(Tier::kNpu), 0);
  // Unref of the (uncached) block releases its remaining DRAM copy.
  pool.Unref(block);
  EXPECT_FALSE(pool.Exists(id));
  EXPECT_EQ(pool.used(Tier::kDram), 0);
}

// An id with bit 63 set: negative, so it must never resolve.
BlockId WithBit63(BlockId id) {
  return static_cast<BlockId>(static_cast<uint64_t>(id) | (uint64_t{1} << 63));
}

TEST(BlockPoolAuditTest, ReusedSlotNeverResolvesTheOldId) {
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 4});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &blocks).ok());
  const BlockId old_id = blocks.front();
  pool.MarkCached({old_id, 1});
  pool.Unref({old_id, 1});
  ASSERT_TRUE(pool.Exists(old_id)) << "a cached block outlives its last ref";
  pool.Destroy({old_id, 1});
  EXPECT_FALSE(pool.Exists(old_id));

  blocks.clear();
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &blocks).ok());
  const BlockId new_id = blocks.front();
  ASSERT_EQ(SlotOf(new_id), SlotOf(old_id)) << "the only free slot was not reused";
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(pool.Exists(old_id));
  EXPECT_TRUE(pool.Exists(new_id));
  EXPECT_FALSE(pool.info(new_id).cached()) << "the new occupant inherited the cached flag";

  // A copy of the old block completing now must not touch the new occupant.
  pool.Pin({new_id, 1});
  pool.Unpin({old_id, 1});
  EXPECT_EQ(pool.info(new_id).pins, 1);
  pool.Unpin({new_id, 1});

  // Negative ids never resolve, whatever the slot they point at holds.
  EXPECT_FALSE(pool.Exists(kInvalidBlock));
  EXPECT_FALSE(pool.Exists(WithBit63(new_id)));
  EXPECT_FALSE(pool.Exists(WithBit63(old_id)));
  EXPECT_FALSE(pool.Exists(Extent{WithBit63(new_id), 1}));
  blocks.clear();
  ASSERT_TRUE(pool.Allocate(2, Tier::kDram, &blocks).ok());
  pool.Unref({blocks[1], 1});  // leaves a free slot at generation 2
  EXPECT_FALSE(pool.Exists(WithBit63(blocks[0])));
  EXPECT_FALSE(pool.Exists(WithBit63(blocks[1])));
  EXPECT_EQ(pool.used(Tier::kNpu), 1);
  EXPECT_EQ(pool.used(Tier::kDram), 1);
}

TEST(BlockPoolAuditTest, ARangeTakesItsSlotsHighestGeneration) {
  // Slots 0 and 1 are freed at different generations and coalesce; the
  // two-block range taken from them gets the higher one for both slots, so
  // neither old id resolves and both new blocks form one extent.
  BlockPool pool({.npu_capacity = 4, .dram_capacity = 0});
  BlockTable blocks;
  ASSERT_TRUE(pool.Allocate(2, Tier::kNpu, &blocks).ok());
  const BlockId zero = blocks[0];
  pool.Unref({blocks[1], 1});
  BlockTable again;
  ASSERT_TRUE(pool.Allocate(1, Tier::kNpu, &again).ok());
  const BlockId one = again.front();
  ASSERT_EQ(SlotOf(one), 1u);
  pool.Unref({one, 1});
  pool.Unref({zero, 1});
  BlockTable both;
  ASSERT_TRUE(pool.Allocate(2, Tier::kNpu, &both).ok());
  ASSERT_EQ(both.extents().size(), 1u);
  EXPECT_EQ(SlotOf(both.front()), 0u);
  EXPECT_EQ(both.front() >> 32, (one >> 32) + 1)
      << "the range takes slot 1's generation, the one after `one`'s";
  EXPECT_FALSE(pool.Exists(zero));
  EXPECT_FALSE(pool.Exists(one));
  EXPECT_EQ(pool.slab_slots(), 2u);
}

// Walks the RTC's tree: every run is parked (no blocks) or holds one live
// block per edge symbol.
void ExpectRunsLive(const RtcMaster& master) {
  using Node = RadixTree<BlockRun>::Node;
  auto walk = [&](const Node* node, const auto& self) -> void {
    node->children.ForEach([&](BlockKey, const Node* child) {
      const BlockTable& run = child->value.blocks;
      if (!run.empty()) {
        EXPECT_EQ(run.size(), child->edge.size()) << "a run and its edge disagree";
        for (const Extent& extent : run.extents()) {
          EXPECT_TRUE(master.pool().Exists(extent)) << "a run holds a dead block";
        }
      }
      self(child, self);
    });
  };
  walk(master.index().root(), walk);
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
// retires and parks as simulated time passes. Every pool operation on a run's
// extents aborts on a block that is not live, and after every step a walk of
// the tree finds each run live and one block per edge symbol, or parked. The
// pool's ref counts match the sequences' pins, no tier is over capacity, and
// the DRAM tier still counts every parked block.
TEST(BlockPoolAuditTest, RtcChurnKeepsEveryTreeSlotLive) {
  for (uint64_t seed : {3ull, 17ull, 91ull}) {
    sim::Simulator sim;
    RtcConfig config;
    config.pool.npu_capacity = 40;
    config.pool.dram_capacity = 24;
    RtcMaster master(&sim, config);
    std::vector<BlockTable> seqs;
    std::vector<std::vector<TokenId>> committed;  // prompts to rematch
    std::map<BlockId, int32_t> refs;
    Rng rng(seed);

    auto pin = [&](const BlockTable& blocks, int32_t delta) {
      for (BlockId id : Ids(blocks)) {
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
      BlockTable blocks = match.blocks;
      bool ok = true;
      if (match.needs_populate()) {
        ok = master.Populate(match).ok();
      }
      ok = ok && master.AllocBlocks(static_cast<int64_t>(keys.size() - blocks.size()),
                                    &blocks).ok();
      pin(blocks.Slice(match.blocks.size(), blocks.size()), 1);
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
      ExpectRunsLive(master);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    for (const BlockTable& blocks : seqs) {
      master.Free(blocks);
      pin(blocks, -1);
    }
    sim.RunUntil(sim.Now() + MsToNs(100));
    EXPECT_TRUE(refs.empty());
    // Every committed prompt still matches through live slots.
    for (const std::vector<TokenId>& prompt : committed) {
      MatchInfo match = master.MatchByPrefixToken(prompt, TokensToBlockKeys(prompt));
      for (BlockId id : Ids(match.blocks)) {
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
