#include "rtc/block_pool.h"

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

Status BlockPool::Allocate(int64_t n, Tier tier, std::vector<BlockId>* out) {
  DS_CHECK_GE(n, 0);
  if (used(tier) + n > capacity(tier)) {
    return ResourceExhaustedError("tier " + std::string(TierToString(tier)) + " needs " +
                                  std::to_string(n) + " blocks, has " +
                                  std::to_string(free_blocks(tier)));
  }
  const BlockInfo fresh{.ref_count = 1, .residency = TierBit(tier)};
  for (int64_t i = 0; i < n; ++i) {
    out->push_back(TakeSlot(fresh));
  }
  used_[static_cast<size_t>(tier)] += n;
  return Status::Ok();
}

BlockId BlockPool::TakeSlot(const BlockInfo& info) {
  size_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    DS_CHECK_LT(slots_.size(), size_t{0xffffffff}) << "block slab exhausted";
    idx = slots_.size();
    slots_.emplace_back();
  }
  Slot& slot = slots_[idx];
  slot.info = info;
  slot.tag |= kLiveBit;
  ++live_count_;
  return MakeId(idx, slot.tag & ~kLiveBit);
}

void BlockPool::ReleaseSlot(size_t idx) {
  Slot& slot = slots_[idx];
  slot.info = BlockInfo{};
  uint32_t gen = slot.tag & ~kLiveBit;
  slot.tag = gen == kMaxGen ? 1 : gen + 1;
  free_slots_.push_back(static_cast<uint32_t>(idx));
  --live_count_;
}

void BlockPool::Park(uint32_t slot) {
  DS_CHECK(InfoAt(slot).parkable()) << "parking block " << IdAt(slot)
                                    << " that a holder still needs";
  ReleaseSlot(slot);
}

BlockId BlockPool::Unpark() {
  return TakeSlot(BlockInfo{.residency = TierBit(Tier::kDram), .flags = kBlockCommitted});
}

BlockId BlockPool::IdAt(uint32_t slot) const {
  InfoAt(slot);  // checks that the slot is live
  return MakeId(slot, slots_[slot].tag & ~kLiveBit);
}

void BlockPool::Pin(BlockId id) {
  BlockInfo& info = mutable_info(id);
  DS_CHECK_LT(info.pins, UINT16_MAX) << "too many in-flight copies of block " << id;
  ++info.pins;
}

void BlockPool::Unpin(BlockId id) {
  if (!Exists(id)) {
    return;
  }
  BlockInfo& info = slots_[IndexOf(id)].info;
  DS_CHECK_GT(info.pins, 0) << "unpin of unpinned block " << id;
  --info.pins;
}

BlockInfo& BlockPool::mutable_info(BlockId id) {
  DS_CHECK(Exists(id)) << "unknown block " << id;
  return slots_[IndexOf(id)].info;
}

const BlockInfo& BlockPool::info(BlockId id) const {
  DS_CHECK(Exists(id)) << "unknown block " << id;
  return slots_[IndexOf(id)].info;
}

void BlockPool::Unref(BlockId id) {
  BlockInfo& info = mutable_info(id);
  DS_CHECK_GT(info.ref_count, 0) << "unref of unreferenced block " << id;
  --info.ref_count;
  if (info.ref_count == 0 && !info.cached()) {
    Destroy(id);
  }
}

Status BlockPool::AddResidency(BlockId id, Tier tier) {
  BlockInfo& info = mutable_info(id);
  if (info.resident(tier)) {
    return Status::Ok();
  }
  if (used(tier) + 1 > capacity(tier)) {
    return ResourceExhaustedError("no free blocks on tier " + std::string(TierToString(tier)));
  }
  info.residency |= TierBit(tier);
  ++used_[static_cast<size_t>(tier)];
  return Status::Ok();
}

void BlockPool::DropResidency(BlockId id, Tier tier) {
  BlockInfo& info = mutable_info(id);
  if (!info.resident(tier)) {
    return;
  }
  info.residency &= static_cast<uint8_t>(~TierBit(tier));
  --used_[static_cast<size_t>(tier)];
}

void BlockPool::Destroy(BlockId id) {
  BlockInfo& info = mutable_info(id);
  DS_CHECK_EQ(info.ref_count, 0) << "destroying referenced block " << id;
  for (Tier tier : {Tier::kNpu, Tier::kDram}) {
    if (info.resident(tier)) {
      --used_[static_cast<size_t>(tier)];
    }
  }
  ReleaseSlot(IndexOf(id));
}

}  // namespace deepserve::rtc
