#include "rtc/block_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace deepserve::rtc {

namespace {
// Generations occupy the high 32 bits of the (signed) BlockId; keeping them
// in [1, 2^31) keeps every id positive and never 0 or kInvalidBlock, and
// leaves bit 31 of a slot's tag free for the live bit.
constexpr uint32_t kMaxGen = 0x7fffffffu;

constexpr BlockId MakeId(size_t idx, uint32_t gen) {
  return static_cast<BlockId>((static_cast<uint64_t>(gen) << 32) |
                              static_cast<uint64_t>(idx));
}
}  // namespace

std::string_view TierToString(Tier tier) {
  switch (tier) {
    case Tier::kNpu:
      return "NPU";
    case Tier::kDram:
      return "DRAM";
  }
  return "?";
}

BlockPool::BlockPool(BlockPoolConfig config) : config_(config) {
  DS_CHECK_GT(config_.npu_capacity, 0);
  DS_CHECK_GE(config_.dram_capacity, 0);
}

int64_t BlockPool::capacity(Tier tier) const {
  switch (tier) {
    case Tier::kNpu:
      return config_.npu_capacity;
    case Tier::kDram:
      return config_.dram_capacity;
  }
  return 0;
}

Status BlockPool::Allocate(int64_t n, Tier tier, BlockTable* out) {
  DS_CHECK_GE(n, 0);
  if (used(tier) + n > capacity(tier)) {
    return ResourceExhaustedError("tier " + std::string(TierToString(tier)) + " needs " +
                                  std::to_string(n) + " blocks, has " +
                                  std::to_string(free_blocks(tier)));
  }
  TakeSlots(n, BlockInfo{.ref_count = 1, .residency = TierBit(tier)}, out);
  used_[static_cast<size_t>(tier)] += n;
  return Status::Ok();
}

void BlockPool::TakeSlots(int64_t n, const BlockInfo& info, BlockTable* out) {
  if (n <= 0) {
    return;
  }
  for (size_t r = 0; r < free_.size(); ++r) {
    if (free_[r].count >= n) {
      TakeRange(r, static_cast<uint32_t>(n), info, out);
      return;
    }
  }
  // No one range covers `n`. Grow the slab by what the free ranges lack (the
  // new slots join a free range that ends at the slab's end), then take the
  // largest ranges first, ties to the lowest address.
  int64_t free_slots = 0;
  for (const Range& range : free_) {
    free_slots += range.count;
  }
  if (free_slots < n) {
    const size_t grow = static_cast<size_t>(n - free_slots);
    DS_CHECK_LE(slots_.size() + grow, size_t{0xffffffff}) << "block slab exhausted";
    const size_t old_size = slots_.size();
    slots_.resize(old_size + grow);
    AddFreeRange(old_size, grow);
  }
  while (n > 0) {
    size_t best = 0;
    for (size_t r = 1; r < free_.size(); ++r) {
      if (free_[r].count > free_[best].count) {
        best = r;
      }
    }
    const uint32_t take = static_cast<uint32_t>(std::min<int64_t>(n, free_[best].count));
    TakeRange(best, take, info, out);
    n -= take;
  }
}

void BlockPool::TakeRange(size_t r, uint32_t n, const BlockInfo& info, BlockTable* out) {
  Range& range = free_[r];
  Slot* slot = &slots_[range.first];
  // The range takes the highest generation among its slots, so no slot's
  // generation moves back to one a stale id may still carry.
  uint32_t gen = 0;
  for (uint32_t i = 0; i < n; ++i) {
    gen = std::max(gen, slot[i].tag);
  }
  for (uint32_t i = 0; i < n; ++i) {
    slot[i] = Slot{info, gen | kLiveBit};
  }
  out->Append({MakeId(range.first, gen), n});
  range.first += n;
  range.count -= n;
  if (range.count == 0) {
    free_.erase(free_.begin() + static_cast<ptrdiff_t>(r));
  }
  live_count_ += n;
  ++range_takes_;
  blocks_taken_ += n;
}

void BlockPool::ReleaseSlots(size_t first, size_t count) {
  for (size_t i = first; i < first + count; ++i) {
    Slot& slot = slots_[i];
    slot.info = BlockInfo{};
    uint32_t gen = slot.tag & ~kLiveBit;
    slot.tag = gen == kMaxGen ? 1 : gen + 1;
  }
  live_count_ -= count;
  AddFreeRange(first, count);
}

void BlockPool::AddFreeRange(size_t first, size_t count) {
  auto next = std::lower_bound(free_.begin(), free_.end(), first,
                               [](const Range& range, size_t at) { return range.first < at; });
  const bool join_prev = next != free_.begin() && (next - 1)->first + (next - 1)->count == first;
  const bool join_next = next != free_.end() && first + count == next->first;
  if (join_prev) {
    (next - 1)->count += static_cast<uint32_t>(count + (join_next ? next->count : 0));
    if (join_next) {
      free_.erase(next);
    }
  } else if (join_next) {
    next->first = static_cast<uint32_t>(first);
    next->count += static_cast<uint32_t>(count);
  } else {
    free_.insert(next, Range{static_cast<uint32_t>(first), static_cast<uint32_t>(count)});
  }
}

bool BlockPool::Exists(Extent extent) const {
  const size_t first = IndexOf(extent.first);
  if (extent.first < 0 || first + extent.count > slots_.size()) {
    return false;
  }
  const uint32_t tag = GenOf(extent.first) | kLiveBit;
  bool live = true;
  for (size_t i = first; i < first + extent.count; ++i) {
    live &= slots_[i].tag == tag;
  }
  return live;
}

void BlockPool::DeadExtent(Extent extent) {
  DS_LOG(FATAL) << "Check failed: extent of " << extent.count << " blocks from " << extent.first
                << " is not live";
  std::abort();  // FATAL has aborted already
}

void BlockPool::Ref(Extent extent) {
  Slot* slot = LiveSlots(extent);
  for (uint32_t i = 0; i < extent.count; ++i) {
    ++slot[i].info.ref_count;
  }
}

void BlockPool::OrFlags(Extent extent, uint8_t flags) {
  Slot* slot = LiveSlots(extent);
  for (uint32_t i = 0; i < extent.count; ++i) {
    slot[i].info.flags |= flags;
  }
}

void BlockPool::DropAllResidency(const BlockInfo& info) {
  for (Tier tier : {Tier::kNpu, Tier::kDram}) {
    if (info.resident(tier)) {
      --used_[static_cast<size_t>(tier)];
    }
  }
}

void BlockPool::Unref(Extent extent) {
  Slot* slot = LiveSlots(extent);
  const size_t first = IndexOf(extent.first);
  // Private blocks that reach zero die; consecutive ones free their slots as
  // one range.
  uint32_t dead_begin = 0;
  uint32_t dead = 0;
  for (uint32_t i = 0; i < extent.count; ++i) {
    BlockInfo& info = slot[i].info;
    DS_CHECK_GT(info.ref_count, 0) << "unref of unreferenced block " << extent.first + i;
    if (--info.ref_count == 0 && !info.cached()) {
      DropAllResidency(info);
      dead_begin = dead == 0 ? i : dead_begin;
      ++dead;
    } else if (dead > 0) {
      ReleaseSlots(first + dead_begin, dead);
      dead = 0;
    }
  }
  if (dead > 0) {
    ReleaseSlots(first + dead_begin, dead);
  }
}

void BlockPool::AddResidency(Extent extent, Tier tier, BlockTable* added) {
  Slot* slot = LiveSlots(extent);
  int64_t& used = used_[static_cast<size_t>(tier)];
  const int64_t cap = capacity(tier);
  Extent run{extent.first, 0};  // the blocks given a copy since the last skip
  for (uint32_t i = 0; i < extent.count && used < cap; ++i) {
    BlockInfo& info = slot[i].info;
    if (info.resident(tier)) {
      added->Append(run);
      run = {extent.first + i + 1, 0};
      continue;
    }
    info.residency |= TierBit(tier);
    ++used;
    ++run.count;
  }
  added->Append(run);
}

void BlockPool::DropResidency(Extent extent, Tier tier) {
  Slot* slot = LiveSlots(extent);
  for (uint32_t i = 0; i < extent.count; ++i) {
    BlockInfo& info = slot[i].info;
    if (info.resident(tier)) {
      info.residency &= static_cast<uint8_t>(~TierBit(tier));
      --used_[static_cast<size_t>(tier)];
    }
  }
}

void BlockPool::Destroy(Extent extent) {
  Slot* slot = LiveSlots(extent);
  for (uint32_t i = 0; i < extent.count; ++i) {
    DS_CHECK_EQ(slot[i].info.ref_count, 0) << "destroying referenced block " << extent.first + i;
    DropAllResidency(slot[i].info);
  }
  ReleaseSlots(IndexOf(extent.first), extent.count);
}

void BlockPool::Park(Extent extent) {
  DS_CHECK_EQ(CountWhile(extent, [](const BlockInfo& info) { return info.parkable(); }),
              extent.count)
      << "parking blocks from " << extent.first << " that a holder still needs";
  ReleaseSlots(IndexOf(extent.first), extent.count);
}

void BlockPool::Unpark(int64_t n, BlockTable* out) {
  TakeSlots(n, BlockInfo{.residency = TierBit(Tier::kDram), .flags = kBlockCommitted}, out);
}

void BlockPool::Pin(Extent extent) {
  Slot* slot = LiveSlots(extent);
  for (uint32_t i = 0; i < extent.count; ++i) {
    BlockInfo& info = slot[i].info;
    DS_CHECK_LT(info.pins, UINT16_MAX) << "too many in-flight copies of block "
                                       << extent.first + i;
    ++info.pins;
  }
}

void BlockPool::Unpin(Extent extent) {
  for (uint32_t i = 0; i < extent.count; ++i) {
    const BlockId id = extent.first + i;
    if (!Exists(id)) {
      continue;  // destroyed since the copy started
    }
    BlockInfo& info = slots_[IndexOf(id)].info;
    DS_CHECK_GT(info.pins, 0) << "unpin of unpinned block " << id;
    --info.pins;
  }
}

const BlockInfo& BlockPool::info(BlockId id) const {
  DS_CHECK(Exists(id)) << "unknown block " << id;
  return slots_[IndexOf(id)].info;
}

BlockId BlockTable::operator[](size_t i) const {
  DS_CHECK_LT(i, blocks_);
  for (const Extent& extent : extents()) {
    if (i < extent.count) {
      return extent.first + static_cast<BlockId>(i);
    }
    i -= extent.count;
  }
  return kInvalidBlock;
}

BlockTable& BlockTable::operator=(const BlockTable& other) {
  if (this == &other) {
    return *this;
  }
  if (capacity_ < other.size_) {
    extents_ = std::make_unique_for_overwrite<Extent[]>(other.size_);
    capacity_ = other.size_;
  }
  std::copy_n(other.extents_.get(), other.size_, extents_.get());
  size_ = other.size_;
  blocks_ = other.blocks_;
  return *this;
}

void BlockTable::Append(Extent extent) {
  if (extent.count == 0) {
    return;
  }
  blocks_ += extent.count;
  if (size_ > 0 && extents_[size_ - 1].end() == extent.first) {
    extents_[size_ - 1].count += extent.count;
    return;
  }
  if (size_ == capacity_) {
    capacity_ = std::max<uint32_t>(1, 2 * capacity_);
    auto grown = std::make_unique_for_overwrite<Extent[]>(capacity_);
    std::copy_n(extents_.get(), size_, grown.get());
    extents_ = std::move(grown);
  }
  extents_[size_++] = extent;
}

void BlockTable::Append(const BlockTable& other, size_t n) {
  DS_CHECK_LE(n, other.size());
  for (const Extent& extent : other.extents()) {
    if (n == 0) {
      break;
    }
    const auto take = static_cast<uint32_t>(std::min<size_t>(n, extent.count));
    Append({extent.first, take});
    n -= take;
  }
}

BlockTable BlockTable::Slice(size_t begin, size_t end) const {
  DS_CHECK_LE(begin, end);
  DS_CHECK_LE(end, blocks_);
  BlockTable out;
  size_t pos = 0;
  for (const Extent& extent : extents()) {
    if (pos >= end) {
      break;
    }
    const size_t lo = std::max(begin, pos);
    const size_t hi = std::min(end, pos + extent.count);
    if (lo < hi) {
      out.Append({extent.first + static_cast<BlockId>(lo - pos), static_cast<uint32_t>(hi - lo)});
    }
    pos += extent.count;
  }
  return out;
}

BlockTable BlockTable::SplitTail(size_t offset) {
  BlockTable tail = Slice(offset, blocks_);
  size_t pos = 0;
  uint32_t keep = 0;
  while (keep < size_ && pos + extents_[keep].count <= offset) {
    pos += extents_[keep++].count;
  }
  if (pos < offset) {
    extents_[keep++].count = static_cast<uint32_t>(offset - pos);
  }
  size_ = keep;
  blocks_ = offset;
  return tail;
}

}  // namespace deepserve::rtc
