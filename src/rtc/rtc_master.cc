#include "rtc/rtc_master.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/sorted_view.h"

namespace deepserve::rtc {

RtcMaster::RtcMaster(sim::Simulator* sim, RtcConfig config)
    : sim_(sim), config_(config), pool_(config.pool) {
  DS_CHECK(sim_ != nullptr);
  DS_CHECK_GT(config_.block_size, 0);
  // Default transfer: completes on the next simulator tick (unit tests).
  transfer_ = [this](Tier, Tier, Bytes, std::function<void()> done) {
    sim_->ScheduleAfter(0, std::move(done));
  };
}

int RtcMaster::TracePid() {
  obs::Tracer* tracer = sim_->tracer();
  if (tracer == nullptr) {
    return -1;
  }
  if (trace_pid_ < 0) {
    trace_pid_ = tracer->NewTrack("rtc");
    tracer->SetLaneName(trace_pid_, 0, "cache");
  }
  return trace_pid_;
}

void RtcMaster::SyncListeners() {
  int64_t used = pool_.used(Tier::kNpu);
  int64_t delta = used - last_npu_used_;
  if (delta == 0) {
    return;
  }
  last_npu_used_ = used;
  for (NpuBlockListener* listener : listeners_) {
    listener->OnNpuBlocksChanged(delta);
  }
}

MatchInfo RtcMaster::BuildMatchInfo(std::vector<BlockId> blocks,
                                    int64_t matched_tokens) const {
  MatchInfo info;
  info.matched_tokens = matched_tokens;
  info.blocks = std::move(blocks);
  bool npu_prefix = true;
  for (BlockId id : info.blocks) {
    if (npu_prefix && pool_.info(id).resident(Tier::kNpu)) {
      info.npu_tokens += config_.block_size;
    } else {
      npu_prefix = false;
    }
  }
  info.offnpu_tokens = info.matched_tokens - info.npu_tokens;
  return info;
}

MatchInfo RtcMaster::MatchByPrefixToken(std::span<const TokenId> prompt,
                                        std::span<const BlockKey> keys) {
  CheckChain(prompt, keys);
  stats_.requested_tokens += static_cast<int64_t>(prompt.size());
  auto match = tree_.Match(keys);
  TimeNs now = sim_->Now();
  tree_.Touch(match, now);
  // Every edge symbol carries one block, so the match length is the count.
  // A parked run on the way gets its slots back first, so the match reports
  // its blocks exactly as if they had never given them up.
  std::vector<BlockId> blocks;
  blocks.reserve(match.matched);
  for (auto* node : match.path) {
    if (node->value.parked()) {
      Unpark(*node);
    }
    AppendIds(node->value.blocks, &blocks);
  }
  if (match.partial != nullptr) {
    if (match.partial->value.parked()) {
      Unpark(*match.partial);
    }
    std::span<const uint32_t> slots(match.partial->value.blocks);
    AppendIds(slots.first(std::min(match.partial_len, slots.size())), &blocks);
  }
  int64_t matched_tokens =
      static_cast<int64_t>(blocks.size()) * static_cast<int64_t>(config_.block_size);
  if (matched_tokens > 0) {
    ++stats_.match_hits;
    stats_.matched_tokens += matched_tokens;
  } else {
    ++stats_.match_misses;
  }
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, matched_tokens > 0 ? "cache.hit" : "cache.miss",
               {obs::Arg("kind", "prefix"),
                obs::Arg("matched_tokens", matched_tokens),
                obs::Arg("requested_tokens", static_cast<int64_t>(prompt.size()))});
  }
  return BuildMatchInfo(std::move(blocks), matched_tokens);
}

void RtcMaster::AppendIds(std::span<const uint32_t> slots, std::vector<BlockId>* out) const {
  for (uint32_t slot : slots) {
    out->push_back(pool_.IdAt(slot));
  }
}

bool RtcMaster::MaybePark(Tree::Node& node) {
  std::vector<uint32_t>& slots = node.value.blocks;
  for (uint32_t slot : slots) {
    if (!pool_.InfoAt(slot).parkable()) {
      return false;
    }
  }
  for (uint32_t slot : slots) {
    pool_.Park(slot);
  }
  stats_.parked_blocks += static_cast<int64_t>(slots.size());
  slots = std::vector<uint32_t>();  // hands the buffer back too
  return true;
}

void RtcMaster::Unpark(Tree::Node& node) {
  std::vector<uint32_t>& slots = node.value.blocks;
  slots.reserve(node.edge.size());
  for (size_t i = 0; i < node.edge.size(); ++i) {
    slots.push_back(BlockPool::SlotOf(pool_.Unpark()));
  }
  stats_.unparked_blocks += static_cast<int64_t>(node.edge.size());
}

MatchInfo RtcMaster::MatchByID(const std::string& id) {
  auto miss = [this, &id] {
    ++stats_.match_misses;
    if (obs::Tracer* t = sim_->tracer()) {
      t->Instant(sim_->Now(), TracePid(), 0, "cache.miss",
                 {obs::Arg("kind", "id"), obs::Arg("id", id)});
    }
    return MatchInfo{};
  };
  auto it = id_index_.find(id);
  if (it == id_index_.end()) {
    return miss();
  }
  // Validate against eviction: any discarded block invalidates the entry
  // (block ids are never reused, so Exists() is a safe liveness check).
  for (BlockId block : it->second) {
    if (!pool_.Exists(block)) {
      id_index_.erase(it);
      id_tokens_.erase(id);
      return miss();
    }
  }
  ++stats_.match_hits;
  int64_t tokens = id_tokens_.at(id);
  stats_.matched_tokens += tokens;
  stats_.requested_tokens += tokens;
  if (obs::Tracer* t = sim_->tracer()) {
    t->Instant(sim_->Now(), TracePid(), 0, "cache.hit",
               {obs::Arg("kind", "id"), obs::Arg("id", id),
                obs::Arg("matched_tokens", tokens)});
  }
  return BuildMatchInfo(it->second, tokens);
}

void RtcMaster::Acquire(std::span<const BlockId> blocks) {
  for (BlockId id : blocks) {
    pool_.Ref(id);
  }
}

Tier RtcMaster::LowestTierBelowNpu(const BlockInfo& info) const {
  if (info.resident(Tier::kDram)) {
    return Tier::kDram;
  }
  return Tier::kSsd;
}

Result<PopulateTicket> RtcMaster::Populate(const MatchInfo& info) {
  // Collect matched blocks that still need an NPU copy, grouped by source.
  std::vector<BlockId> from_dram;
  std::vector<BlockId> from_ssd;
  for (BlockId id : info.blocks) {
    const BlockInfo& block = pool_.info(id);
    DS_CHECK_GT(block.ref_count, 0) << "Populate requires Acquire()d blocks";
    if (block.resident(Tier::kNpu)) {
      continue;
    }
    (LowestTierBelowNpu(block) == Tier::kDram ? from_dram : from_ssd).push_back(id);
  }
  int64_t needed = static_cast<int64_t>(from_dram.size() + from_ssd.size());
  if (needed == 0) {
    PopulateTicket ticket = next_ticket_++;
    inflight_populates_[ticket] = 0;  // instantly ready
    return ticket;
  }
  DS_RETURN_IF_ERROR(EnsureNpuFree(needed));
  PopulateTicket ticket = next_ticket_++;
  int groups = static_cast<int>(!from_dram.empty()) + static_cast<int>(!from_ssd.empty());
  inflight_populates_[ticket] = groups;
  ++stats_.populates;
  stats_.populated_blocks += needed;
  if (obs::Tracer* t = sim_->tracer()) {
    t->AsyncBegin(sim_->Now(), TracePid(), ticket, "populate",
                  {obs::Arg("blocks", needed),
                   obs::Arg("from_dram", static_cast<int64_t>(from_dram.size())),
                   obs::Arg("from_ssd", static_cast<int64_t>(from_ssd.size()))});
  }

  auto launch = [this, ticket](std::vector<BlockId> blocks, Tier src) {
    // Reserve NPU slots up-front so concurrent allocation cannot over-commit;
    // pin the blocks so eviction cannot race the in-flight copy.
    for (BlockId id : blocks) {
      DS_CHECK_OK(pool_.AddResidency(id, Tier::kNpu));
      pool_.Pin(id);
    }
    SyncListeners();
    Bytes bytes = static_cast<Bytes>(blocks.size()) * config_.bytes_per_block;
    transfer_(src, Tier::kNpu, bytes, [this, ticket, blocks = std::move(blocks)] {
      for (BlockId id : blocks) {
        pool_.Unpin(id);
      }
      auto it = inflight_populates_.find(ticket);
      DS_CHECK(it != inflight_populates_.end());
      if (--it->second == 0) {
        if (obs::Tracer* t = sim_->tracer()) {
          t->AsyncEnd(sim_->Now(), TracePid(), ticket, "populate");
        }
        auto cb = populate_callbacks_.find(ticket);
        if (cb != populate_callbacks_.end()) {
          auto fn = std::move(cb->second);
          populate_callbacks_.erase(cb);
          fn();
        }
      }
    });
  };
  if (!from_dram.empty()) {
    launch(std::move(from_dram), Tier::kDram);
  }
  if (!from_ssd.empty()) {
    launch(std::move(from_ssd), Tier::kSsd);
  }
  return ticket;
}

void RtcMaster::OnPopulateReady(PopulateTicket ticket, std::function<void()> callback) {
  auto it = inflight_populates_.find(ticket);
  if (it == inflight_populates_.end() || it->second == 0) {
    sim_->ScheduleAfter(0, std::move(callback));
    return;
  }
  DS_CHECK(populate_callbacks_.emplace(ticket, std::move(callback)).second)
      << "populate ticket already has a callback";
}

MatchInfo RtcMaster::TruncateMatch(const MatchInfo& info, int64_t max_tokens) const {
  if (info.matched_tokens <= max_tokens) {
    return info;
  }
  size_t keep_blocks = static_cast<size_t>(std::max<int64_t>(0, max_tokens) /
                                           static_cast<int64_t>(config_.block_size));
  return BuildMatchInfo(
      std::vector<BlockId>(info.blocks.begin(),
                           info.blocks.begin() + static_cast<ptrdiff_t>(keep_blocks)),
      static_cast<int64_t>(keep_blocks) * static_cast<int64_t>(config_.block_size));
}

PicMatch RtcMaster::MatchPositionIndependent(std::span<const TokenId> prompt,
                                             int64_t skip_tokens) {
  PicMatch match;
  if (!config_.enable_pic) {
    return match;
  }
  size_t bs = static_cast<size_t>(config_.block_size);
  size_t first_block = static_cast<size_t>(std::max<int64_t>(0, skip_tokens)) / bs;
  size_t full = prompt.size() / bs;
  for (size_t b = first_block; b < full; ++b) {
    BlockKey content = ChainHash(0, prompt.subspan(b * bs, bs));
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
    match.blocks.push_back(it->second);
    match.matched_tokens += config_.block_size;
  }
  if (match.matched_tokens > 0) {
    ++stats_.pic_hits;
    stats_.pic_matched_tokens += match.matched_tokens;
  }
  return match;
}

PopulateState RtcMaster::QueryPopulate(PopulateTicket ticket) const {
  auto it = inflight_populates_.find(ticket);
  if (it == inflight_populates_.end()) {
    return PopulateState::kUnknown;
  }
  return it->second == 0 ? PopulateState::kReady : PopulateState::kInFlight;
}

Status RtcMaster::EnsureNpuFree(int64_t n) {
  if (pool_.free_blocks(Tier::kNpu) >= n) {
    return Status::Ok();
  }
  // Pass 1: drop NPU residency of cold blocks that already have a lower-tier
  // copy (no data loss), coldest leaf first.
  auto droppable = [&](const Tree::Node& node) {
    if (node.value.blocks.empty()) {
      return false;
    }
    for (uint32_t slot : node.value.blocks) {
      const BlockInfo& info = pool_.InfoAt(slot);
      if (info.ref_count > 0 || info.pinned() || !info.resident(Tier::kNpu) ||
          info.residency == TierBit(Tier::kNpu)) {
        return false;
      }
    }
    return true;
  };
  tree_.ScanLruLeaves([&](Tree::Node& node) {
    if (pool_.free_blocks(Tier::kNpu) >= n) {
      return LruStep::kStop;
    }
    if (droppable(node)) {
      for (uint32_t slot : node.value.blocks) {
        pool_.DropResidency(pool_.IdAt(slot), Tier::kNpu);
        ++stats_.evicted_blocks;
      }
      MaybePark(node);
    }
    // The node stays: its blocks remain matchable (and populatable) from
    // DRAM/SSD.
    return LruStep::kNext;
  });
  // Pass 2: discard cold NPU-only cache entries entirely.
  auto discardable = [&](const Tree::Node& node) {
    if (node.value.blocks.empty()) {
      return false;
    }
    for (uint32_t slot : node.value.blocks) {
      const BlockInfo& info = pool_.InfoAt(slot);
      if (info.ref_count > 0 || info.pinned() || !info.resident(Tier::kNpu)) {
        return false;
      }
    }
    return true;
  };
  tree_.ScanLruLeaves([&](Tree::Node& node) {
    if (pool_.free_blocks(Tier::kNpu) >= n) {
      return LruStep::kStop;
    }
    if (!discardable(node)) {
      return LruStep::kNext;
    }
    // The leaf leaves the tree with its blocks: no run keeps a freed slot.
    for (uint32_t slot : node.value.blocks) {
      pool_.Destroy(pool_.IdAt(slot));
      ++stats_.discarded_blocks;
    }
    return LruStep::kRemove;
  });
  SyncListeners();
  if (pool_.free_blocks(Tier::kNpu) < n) {
    return ResourceExhaustedError("NPU blocks exhausted: need " + std::to_string(n) + ", free " +
                                  std::to_string(pool_.free_blocks(Tier::kNpu)));
  }
  return Status::Ok();
}

Status RtcMaster::AllocBlocks(int64_t n, std::vector<BlockId>* out) {
  DS_RETURN_IF_ERROR(EnsureNpuFree(n));
  DS_RETURN_IF_ERROR(pool_.Allocate(n, Tier::kNpu, out));
  SyncListeners();
  MaybeArmSwap();
  return Status::Ok();
}

Result<std::vector<BlockId>> RtcMaster::AllocBlocks(int64_t n) {
  std::vector<BlockId> blocks;
  DS_RETURN_IF_ERROR(AllocBlocks(n, &blocks));
  return blocks;
}

int64_t RtcMaster::Copy(std::span<const BlockId> blocks, Tier dst,
                        std::function<void()> on_complete) {
  std::vector<BlockId> to_copy;
  to_copy.reserve(blocks.size());
  for (BlockId id : blocks) {
    const BlockInfo& info = pool_.info(id);
    if (info.resident(dst)) {
      continue;
    }
    if (!pool_.AddResidency(id, dst).ok()) {
      continue;  // destination tier full: skip (best-effort copy)
    }
    to_copy.push_back(id);
  }
  const auto started = static_cast<int64_t>(to_copy.size());
  if (to_copy.empty()) {
    sim_->ScheduleAfter(0, std::move(on_complete));
    return started;
  }
  for (BlockId id : to_copy) {
    pool_.Pin(id);
  }
  Bytes bytes = static_cast<Bytes>(to_copy.size()) * config_.bytes_per_block;
  transfer_(Tier::kNpu, dst, bytes,
            [this, to_copy = std::move(to_copy), cb = std::move(on_complete)]() mutable {
              for (BlockId id : to_copy) {
                pool_.Unpin(id);
              }
              if (cb) {
                cb();
              }
            });
  return started;
}

void RtcMaster::Free(std::span<const BlockId> blocks) {
  for (BlockId id : blocks) {
    pool_.Unref(id);
  }
  SyncListeners();
}

void RtcMaster::CheckChain(std::span<const TokenId> tokens,
                           std::span<const BlockKey> keys) const {
  DS_CHECK_EQ(keys.size(), tokens.size() / static_cast<size_t>(config_.block_size))
      << "key chain does not match the tokens";
}

void RtcMaster::CommitBlocks(std::span<const TokenId> tokens, std::span<const BlockId> blocks,
                             std::span<const BlockKey> keys) {
  CheckChain(tokens, keys);
  if (keys.empty()) {
    return;
  }
  DS_CHECK_GE(blocks.size(), keys.size())
      << "Preserve needs one block per full " << config_.block_size << "-token chunk";
  // ds-lint: allow(deferred-capture, RadixTree::Insert runs the per-node visitor before returning; the name collides with the deferred EventQueue::Insert sink)
  tree_.Insert(keys, sim_->Now(), [&](Tree::Node& node, size_t begin, size_t end) {
    node.value.blocks.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      pool_.MarkCached(blocks[i]);
      node.value.blocks.push_back(BlockPool::SlotOf(blocks[i]));
      if (config_.enable_pic) {
        // Content-only hash (chain seed 0): same tokens at any position map
        // to the same PIC key.
        size_t bs = static_cast<size_t>(config_.block_size);
        BlockKey content = ChainHash(0, tokens.subspan(i * bs, bs));
        pic_index_[content] = blocks[i];
        pool_.MarkIndexed(blocks[i]);
      }
    }
  });
  MaybeArmSwap();
}

void RtcMaster::Preserve(std::span<const TokenId> tokens, std::span<const BlockId> blocks,
                         std::span<const BlockKey> keys) {
  CommitBlocks(tokens, blocks, keys);
}

Status RtcMaster::PreserveById(const std::string& id, std::span<const TokenId> tokens,
                               std::span<const BlockId> blocks, std::span<const BlockKey> keys) {
  if (id.empty()) {
    return InvalidArgumentError("empty context-cache id");
  }
  CheckChain(tokens, keys);
  if (keys.empty()) {
    return InvalidArgumentError("context shorter than one block");
  }
  // Explicit entries also live in the prefix tree so implicit matching still
  // finds them (CommitBlocks is idempotent for existing spans).
  CommitBlocks(tokens, blocks, keys);
  std::vector<BlockId>& indexed = id_index_[id];
  indexed.assign(blocks.begin(), blocks.begin() + static_cast<ptrdiff_t>(keys.size()));
  for (BlockId block : indexed) {
    pool_.MarkIndexed(block);  // the entry keeps its id: never park it
  }
  id_tokens_[id] =
      static_cast<int64_t>(keys.size()) * static_cast<int64_t>(config_.block_size);
  return Status::Ok();
}

bool RtcMaster::DropById(const std::string& id) {
  id_tokens_.erase(id);
  return id_index_.erase(id) > 0;
}

std::vector<std::pair<std::string, int64_t>> RtcMaster::CacheEntries() const {
  return SortedItems(id_tokens_);
}

void RtcMaster::MaybeArmSwap() {
  if (!config_.enable_background_swap || swap_armed_) {
    return;
  }
  double usage = static_cast<double>(pool_.used(Tier::kNpu)) /
                 static_cast<double>(pool_.capacity(Tier::kNpu));
  if (usage < config_.swap_high_watermark) {
    return;
  }
  swap_armed_ = true;
  sim_->ScheduleAfter(config_.swap_interval, [this] {
    swap_armed_ = false;
    SwapScan();
  });
}

void RtcMaster::SwapScan() {
  double usage = static_cast<double>(pool_.used(Tier::kNpu)) /
                 static_cast<double>(pool_.capacity(Tier::kNpu));
  if (usage < config_.swap_high_watermark) {
    return;
  }
  // Demote the coldest unreferenced NPU-only leaf runs to DRAM, then release
  // their NPU copies once the (timed) copy lands. This keeps the synchronous
  // eviction path (EnsureNpuFree pass 1) stocked with droppable blocks. A
  // full DRAM tier takes no victims: Copy would skip every block.
  int64_t budget = std::min(config_.swap_batch_blocks, pool_.free_blocks(Tier::kDram));
  auto swappable = [this](const Tree::Node& node) {
    if (node.value.blocks.empty()) {
      return false;
    }
    for (uint32_t slot : node.value.blocks) {
      const BlockInfo& info = pool_.InfoAt(slot);
      if (info.ref_count > 0 || info.pinned() || !info.resident(Tier::kNpu) ||
          info.resident(Tier::kDram)) {
        return false;
      }
    }
    return true;
  };
  // Only Destroy drops a block's DRAM copy, and a destroyed block's leaf
  // leaves the tree with it, so a leaf whose blocks all sit in DRAM (a parked
  // one included) can never be swappable again; neither can either half of it
  // after a split. Such leaves are parked if they can be and retired off the
  // scan's list. One whose demote copy is still in flight is looked at again
  // by the next scan, by when the copy has landed and it can park.
  auto demoted = [this](const Tree::Node& node) {
    return std::all_of(node.value.blocks.begin(), node.value.blocks.end(),
                       [this](uint32_t slot) {
                         return pool_.InfoAt(slot).resident(Tier::kDram);
                       });
  };
  auto copying = [this](const Tree::Node& node) {
    return std::any_of(node.value.blocks.begin(), node.value.blocks.end(),
                       [this](uint32_t slot) {
                         return pool_.InfoAt(slot).pinned();
                       });
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
    // The completion may run after the leaf is gone, so it holds full ids.
    std::vector<BlockId> blocks;
    blocks.reserve(victim->value.blocks.size());
    AppendIds(victim->value.blocks, &blocks);
    // Moving the list into the closure keeps its buffer, so `ids` stays valid.
    std::span<const BlockId> ids(blocks);
    auto demote = [this, blocks = std::move(blocks)] {
      for (BlockId id : blocks) {
        if (pool_.Exists(id) && pool_.info(id).ref_count == 0 &&
            pool_.info(id).resident(Tier::kDram)) {
          pool_.DropResidency(id, Tier::kNpu);
        }
      }
      SyncListeners();
    };
    stats_.swapped_out_blocks += Copy(ids, Tier::kDram, std::move(demote));
  }
  MaybeArmSwap();
}

}  // namespace deepserve::rtc
