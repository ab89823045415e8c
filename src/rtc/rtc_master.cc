#include "rtc/rtc_master.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace deepserve::rtc {

RtcMaster::RtcMaster(sim::Simulator* sim, RtcConfig config)
    : sim_(sim), config_(config), pool_(config.pool) {
  DS_CHECK(sim_ != nullptr);
  // Default transfer: completes on the next simulator tick (unit tests).
  transfer_ = [this](Tier, Tier, Bytes, std::function<void()> done) {
    sim_->ScheduleAfter(0, std::move(done));
  };
}

MatchInfo RtcMaster::BuildMatchInfo(BlockTable blocks, int64_t matched_tokens) const {
  MatchInfo info;
  info.matched_tokens = matched_tokens;
  info.blocks = std::move(blocks);
  for (const Extent& extent : info.blocks.extents()) {
    const uint32_t npu = pool_.CountWhile(
        extent, [](const BlockInfo& block) { return block.resident(Tier::kNpu); });
    info.npu_tokens += static_cast<int64_t>(npu) * kBlockTokens;
    if (npu < extent.count) {
      break;
    }
  }
  info.offnpu_tokens = info.matched_tokens - info.npu_tokens;
  return info;
}

MatchInfo RtcMaster::MatchByPrefixToken(std::span<const TokenId> prompt,
                                        std::span<const BlockKey> keys) {
  CheckChain(prompt, keys);
  stats_.requested_tokens += static_cast<int64_t>(prompt.size());
  tree_.Match(keys, &match_);
  tree_.Touch(match_, sim_->Now());
  // Every edge symbol carries one block, so the match length is the count.
  // A parked run on the way gets its slots back first, so the match reports
  // its blocks exactly as if they had never given them up.
  BlockTable blocks;
  for (auto* node : match_.path) {
    if (node->value.parked()) {
      Unpark(*node);
    }
    blocks.Append(node->value.blocks);
  }
  if (match_.partial != nullptr) {
    if (match_.partial->value.parked()) {
      Unpark(*match_.partial);
    }
    const BlockTable& run = match_.partial->value.blocks;
    blocks.Append(run, std::min(match_.partial_len, run.size()));
  }
  int64_t matched_tokens = static_cast<int64_t>(blocks.size()) * kBlockTokens;
  if (matched_tokens > 0) {
    ++stats_.match_hits;
    stats_.matched_tokens += matched_tokens;
  } else {
    ++stats_.match_misses;
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, matched_tokens > 0 ? "cache.hit" : "cache.miss",
               {obs::Arg("kind", "prefix"),
                obs::Arg("matched_tokens", matched_tokens),
                obs::Arg("requested_tokens", static_cast<int64_t>(prompt.size()))});
  }
  return BuildMatchInfo(std::move(blocks), matched_tokens);
}

bool RtcMaster::MaybePark(Tree::Node& node) {
  BlockTable& blocks = node.value.blocks;
  if (!AllOf(blocks, [](const BlockInfo& info) { return info.parkable(); })) {
    return false;
  }
  for (const Extent& extent : blocks.extents()) {
    pool_.Park(extent);
  }
  stats_.parked_blocks += static_cast<int64_t>(blocks.size());
  blocks = BlockTable();  // hands the buffer back too
  return true;
}

void RtcMaster::Unpark(Tree::Node& node) {
  pool_.Unpark(static_cast<int64_t>(node.edge.size()), &node.value.blocks);
  stats_.unparked_blocks += static_cast<int64_t>(node.edge.size());
}

MatchInfo RtcMaster::MatchByID(const std::string& id) {
  auto miss = [this, &id] {
    ++stats_.match_misses;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), track_.Pid(t), 0, "cache.miss",
                 {obs::Arg("kind", "id"), obs::Arg("id", id)});
    }
    return MatchInfo{};
  };
  auto it = id_index_.find(id);
  if (it == id_index_.end()) {
    return miss();
  }
  // Validate against eviction: any discarded block invalidates the entry
  // (a reused slot has a new generation, so Exists() is a safe liveness
  // check).
  for (const Extent& extent : it->second.extents()) {
    if (!pool_.Exists(extent)) {
      id_index_.erase(it);
      return miss();
    }
  }
  ++stats_.match_hits;
  int64_t tokens = static_cast<int64_t>(it->second.size()) * kBlockTokens;
  stats_.matched_tokens += tokens;
  stats_.requested_tokens += tokens;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), track_.Pid(t), 0, "cache.hit",
               {obs::Arg("kind", "id"), obs::Arg("id", id),
                obs::Arg("matched_tokens", tokens)});
  }
  return BuildMatchInfo(it->second, tokens);
}

void RtcMaster::Acquire(const BlockTable& blocks) {
  for (const Extent& extent : blocks.extents()) {
    pool_.Ref(extent);
  }
}

Result<PopulateTicket> RtcMaster::Populate(const MatchInfo& info) {
  // Count matched blocks that still need an NPU copy; each has one in DRAM.
  DS_CHECK(AllOf(info.blocks, [](const BlockInfo& block) { return block.ref_count > 0; }))
      << "Populate requires Acquire()d blocks";
  int64_t needed = 0;
  for (const Extent& extent : info.blocks.extents()) {
    needed += pool_.CountIf(extent,
                            [](const BlockInfo& block) { return !block.resident(Tier::kNpu); });
  }
  if (needed == 0) {
    return next_ticket_++;  // instantly ready: never in flight
  }
  DS_RETURN_IF_ERROR(EnsureNpuFree(needed));
  PopulateTicket ticket = next_ticket_++;
  inflight_populates_.emplace(ticket, nullptr);
  ++stats_.populates;
  stats_.populated_blocks += needed;
  if (obs::Tracer* t = sim_->tracer()) {
    t->AsyncBegin(sim_->Now(), track_.Pid(t), ticket, "populate",
                  {obs::Arg("blocks", needed)});
  }
  // Reserve NPU slots up-front so concurrent allocation cannot over-commit;
  // pin the blocks so eviction cannot race the in-flight copy.
  BlockTable blocks;
  for (const Extent& extent : info.blocks.extents()) {
    pool_.AddResidency(extent, Tier::kNpu, &blocks);
  }
  DS_CHECK_EQ(static_cast<int64_t>(blocks.size()), needed);
  for (const Extent& extent : blocks.extents()) {
    pool_.Pin(extent);
  }
  Bytes bytes = static_cast<Bytes>(needed) * config_.bytes_per_block;
  transfer_(Tier::kDram, Tier::kNpu, bytes, [this, ticket, blocks = std::move(blocks)] {
    for (const Extent& extent : blocks.extents()) {
      pool_.Unpin(extent);
    }
    auto it = inflight_populates_.find(ticket);
    DS_CHECK(it != inflight_populates_.end());
    std::function<void()> callback = std::move(it->second);
    inflight_populates_.erase(it);
    if (obs::Tracer* t = sim_->tracer()) {
      t->AsyncEnd(sim_->Now(), track_.Pid(t), ticket, "populate");
    }
    if (callback) {
      callback();
    }
  });
  return ticket;
}

void RtcMaster::OnPopulateReady(PopulateTicket ticket, std::function<void()> callback) {
  auto it = inflight_populates_.find(ticket);
  if (it == inflight_populates_.end()) {
    if (callback) {
      sim_->ScheduleAfter(0, std::move(callback));
    }
    return;
  }
  DS_CHECK(!it->second) << "populate ticket already has a callback";
  it->second = std::move(callback);
}

MatchInfo RtcMaster::TruncateMatch(const MatchInfo& info, int64_t max_tokens) const {
  if (info.matched_tokens <= max_tokens) {
    return info;
  }
  int64_t keep_blocks = std::max<int64_t>(0, max_tokens) / kBlockTokens;
  return BuildMatchInfo(info.blocks.Slice(0, static_cast<size_t>(keep_blocks)),
                        keep_blocks * kBlockTokens);
}

PicMatch RtcMaster::MatchPositionIndependent(std::span<const TokenId> prompt,
                                             int64_t skip_tokens) {
  PicMatch match;
  if (!config_.enable_pic) {
    return match;
  }
  constexpr size_t bs = kBlockTokens;
  size_t first_block = static_cast<size_t>(std::max<int64_t>(0, skip_tokens)) / bs;
  size_t full = prompt.size() / bs;
  for (size_t b = first_block; b < full; ++b) {
    BlockKey content = ChainHash(0, Block(prompt, b));
    auto it = pic_index_.find(content);
    if (it == pic_index_.end()) {
      continue;
    }
    if (!pool_.Exists(it->second)) {
      pic_index_.erase(it);  // block was evicted; prune the stale entry
      continue;
    }
    const BlockInfo& info = pool_.info(it->second);
    if (!info.resident(Tier::kNpu)) {
      continue;  // off-NPU PIC blocks are not worth fetching
    }
    match.blocks.Append({it->second, 1});
    match.matched_tokens += kBlockTokens;
  }
  if (match.matched_tokens > 0) {
    ++stats_.pic_hits;
    stats_.pic_matched_tokens += match.matched_tokens;
  }
  return match;
}

PopulateState RtcMaster::QueryPopulate(PopulateTicket ticket) const {
  if (inflight_populates_.contains(ticket)) {
    return PopulateState::kInFlight;
  }
  return ticket >= 1 && ticket < next_ticket_ ? PopulateState::kReady : PopulateState::kUnknown;
}

Status RtcMaster::EnsureNpuFree(int64_t n) {
  if (pool_.free_blocks(Tier::kNpu) >= n) {
    return Status::Ok();
  }
  // Pass 1: drop NPU residency of cold blocks that already have a lower-tier
  // copy (no data loss), coldest leaf first.
  auto droppable = [&](const Tree::Node& node) {
    return !node.value.blocks.empty() && AllOf(node.value.blocks, [](const BlockInfo& info) {
      return info.ref_count == 0 && !info.pinned() && info.resident(Tier::kNpu) &&
             info.residency != TierBit(Tier::kNpu);
    });
  };
  tree_.ScanLruLeaves([&](Tree::Node& node) {
    if (pool_.free_blocks(Tier::kNpu) >= n) {
      return LruStep::kStop;
    }
    if (droppable(node)) {
      for (const Extent& extent : node.value.blocks.extents()) {
        pool_.DropResidency(extent, Tier::kNpu);
      }
      stats_.evicted_blocks += static_cast<int64_t>(node.value.blocks.size());
      MaybePark(node);
    }
    // The node stays: its blocks remain matchable (and populatable) from
    // DRAM.
    return LruStep::kNext;
  });
  // Pass 2: discard cold NPU-only cache entries entirely.
  auto discardable = [&](const Tree::Node& node) {
    return !node.value.blocks.empty() && AllOf(node.value.blocks, [](const BlockInfo& info) {
      return info.ref_count == 0 && !info.pinned() && info.resident(Tier::kNpu);
    });
  };
  tree_.ScanLruLeaves([&](Tree::Node& node) {
    if (pool_.free_blocks(Tier::kNpu) >= n) {
      return LruStep::kStop;
    }
    if (!discardable(node)) {
      return LruStep::kNext;
    }
    // The leaf leaves the tree with its blocks: no run keeps a freed slot.
    for (const Extent& extent : node.value.blocks.extents()) {
      pool_.Destroy(extent);
    }
    stats_.discarded_blocks += static_cast<int64_t>(node.value.blocks.size());
    return LruStep::kRemove;
  });
  if (pool_.free_blocks(Tier::kNpu) < n) {
    return ResourceExhaustedError("NPU blocks exhausted: need " + std::to_string(n) + ", free " +
                                  std::to_string(pool_.free_blocks(Tier::kNpu)));
  }
  return Status::Ok();
}

Status RtcMaster::AllocBlocks(int64_t n, BlockTable* out) {
  DS_RETURN_IF_ERROR(EnsureNpuFree(n));
  DS_RETURN_IF_ERROR(pool_.Allocate(n, Tier::kNpu, out));
  MaybeArmSwap();
  return Status::Ok();
}

Result<BlockTable> RtcMaster::AllocBlocks(int64_t n) {
  BlockTable blocks;
  DS_RETURN_IF_ERROR(AllocBlocks(n, &blocks));
  return blocks;
}

int64_t RtcMaster::Copy(const BlockTable& blocks, Tier dst, std::function<void()> on_complete) {
  // Blocks that do not fit on a full destination tier are skipped
  // (best-effort copy).
  BlockTable to_copy;
  for (const Extent& extent : blocks.extents()) {
    pool_.AddResidency(extent, dst, &to_copy);
  }
  const auto started = static_cast<int64_t>(to_copy.size());
  if (to_copy.empty()) {
    if (on_complete) {
      sim_->ScheduleAfter(0, std::move(on_complete));
    }
    return started;
  }
  for (const Extent& extent : to_copy.extents()) {
    pool_.Pin(extent);
  }
  Bytes bytes = static_cast<Bytes>(to_copy.size()) * config_.bytes_per_block;
  transfer_(Tier::kNpu, dst, bytes,
            [this, to_copy = std::move(to_copy), cb = std::move(on_complete)]() mutable {
              for (const Extent& extent : to_copy.extents()) {
                pool_.Unpin(extent);
              }
              if (cb) {
                cb();
              }
            });
  return started;
}

void RtcMaster::Free(const BlockTable& blocks) {
  for (const Extent& extent : blocks.extents()) {
    pool_.Unref(extent);
  }
}

void RtcMaster::CheckChain(std::span<const TokenId> tokens, std::span<const BlockKey> keys) {
  DS_CHECK_EQ(keys.size(), tokens.size() / kBlockTokens) << "key chain does not match the tokens";
}

void RtcMaster::Preserve(std::span<const TokenId> tokens, const BlockTable& blocks,
                         const KeyChain& keys) {
  CheckChain(tokens, keys.span());
  if (keys.size() == 0) {
    return;
  }
  DS_CHECK_GE(blocks.size(), keys.size())
      << "Preserve needs one block per full " << kBlockTokens << "-token chunk";
  // ds-lint: allow(deferred-capture, RadixTree::Insert runs the per-node visitor before returning; the name collides with the deferred EventQueue::Insert sink)
  tree_.Insert(keys, sim_->Now(), [&](Tree::Node& node, size_t begin, size_t end) {
    node.value.blocks = blocks.Slice(begin, end);
    size_t i = begin;
    for (const Extent& extent : node.value.blocks.extents()) {
      pool_.MarkCached(extent);
      if (!config_.enable_pic) {
        continue;
      }
      // Content-only hash (chain seed 0): same tokens at any position map to
      // the same PIC key.
      for (uint32_t j = 0; j < extent.count; ++j, ++i) {
        BlockKey content = ChainHash(0, Block(tokens, i));
        pic_index_[content] = extent.first + j;
      }
      pool_.MarkIndexed(extent);
    }
  });
  MaybeArmSwap();
}

Status RtcMaster::PreserveById(const std::string& id, std::span<const TokenId> tokens,
                               const BlockTable& blocks, const KeyChain& keys) {
  if (id.empty()) {
    return InvalidArgumentError("empty context-cache id");
  }
  if (tokens.size() < kBlockTokens) {
    return InvalidArgumentError("context shorter than one block");
  }
  // Explicit entries also live in the prefix tree so implicit matching still
  // finds them (Preserve is idempotent for existing spans).
  Preserve(tokens, blocks, keys);
  BlockTable& indexed = id_index_[id];
  indexed = blocks.Slice(0, keys.size());
  for (const Extent& extent : indexed.extents()) {
    pool_.MarkIndexed(extent);  // the entry keeps its ids: never park them
  }
  return Status::Ok();
}

void RtcMaster::MaybeArmSwap() {
  if (swap_armed_) {
    return;
  }
  double usage = static_cast<double>(pool_.used(Tier::kNpu)) /
                 static_cast<double>(pool_.capacity(Tier::kNpu));
  if (usage < kSwapHighWatermark) {
    return;
  }
  swap_armed_ = true;
  sim_->ScheduleAfter(kSwapInterval, [this] {
    swap_armed_ = false;
    SwapScan();
  });
}

void RtcMaster::SwapScan() {
  double usage = static_cast<double>(pool_.used(Tier::kNpu)) /
                 static_cast<double>(pool_.capacity(Tier::kNpu));
  if (usage < kSwapHighWatermark) {
    return;
  }
  // Demote the coldest unreferenced NPU-only leaf runs to DRAM, then release
  // their NPU copies once the (timed) copy lands. This keeps the synchronous
  // eviction path (EnsureNpuFree pass 1) stocked with droppable blocks. A
  // full DRAM tier takes no victims: Copy would skip every block.
  int64_t budget = std::min(kSwapBatchBlocks, pool_.free_blocks(Tier::kDram));
  auto swappable = [this](const Tree::Node& node) {
    return !node.value.blocks.empty() && AllOf(node.value.blocks, [](const BlockInfo& info) {
      return info.ref_count == 0 && !info.pinned() && info.resident(Tier::kNpu) &&
             !info.resident(Tier::kDram);
    });
  };
  // Only Destroy drops a block's DRAM copy, and a destroyed block's leaf
  // leaves the tree with it, so a leaf whose blocks all sit in DRAM (a parked
  // one included) can never be swappable again; neither can either half of it
  // after a split. Such leaves are parked if they can be and retired off the
  // scan's list. One whose demote copy is still in flight is looked at again
  // by the next scan, by when the copy has landed and it can park.
  auto demoted = [this](const Tree::Node& node) {
    return AllOf(node.value.blocks,
                 [](const BlockInfo& info) { return info.resident(Tier::kDram); });
  };
  auto copying = [this](const Tree::Node& node) {
    return !AllOf(node.value.blocks, [](const BlockInfo& info) { return !info.pinned(); });
  };
  std::vector<Tree::Node*>& victims = swap_victims_;
  victims.clear();
  tree_.ScanLruLeaves(
      [&](Tree::Node& node) {
        if (budget <= 0) {
          return LruStep::kStop;
        }
        ++stats_.swap_scan_leaves;
        if (MaybePark(node)) {
          return LruStep::kRetire;
        }
        if (demoted(node)) {
          return copying(node) ? LruStep::kNext : LruStep::kRetire;
        }
        if (swappable(node)) {
          victims.push_back(&node);
          budget -= static_cast<int64_t>(node.value.blocks.size());
        }
        return LruStep::kNext;
      },
      LruList::kActive);
  for (Tree::Node* victim : victims) {
    // The completion drops the NPU copies of the blocks still unreferenced
    // and in DRAM. It may run after the leaf is gone, so it checks each
    // block's generation unless the whole extent is live.
    auto demote = [this, blocks = victim->value.blocks] {
      auto idle_in_dram = [](const BlockInfo& info) {
        return info.ref_count == 0 && info.resident(Tier::kDram);
      };
      for (const Extent& extent : blocks.extents()) {
        if (pool_.Exists(extent) && pool_.CountWhile(extent, idle_in_dram) == extent.count) {
          pool_.DropResidency(extent, Tier::kNpu);
          continue;
        }
        for (BlockId id = extent.first; id < extent.end(); ++id) {
          if (pool_.Exists(id) && idle_in_dram(pool_.info(id))) {
            pool_.DropResidency({id, 1}, Tier::kNpu);
          }
        }
      }
    };
    stats_.swapped_out_blocks += Copy(victim->value.blocks, Tier::kDram, std::move(demote));
  }
  MaybeArmSwap();
}

}  // namespace deepserve::rtc
