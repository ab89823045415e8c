// KV-cache block bookkeeping for the Relational Tensor Cache.
//
// RTC manages KV data at fixed token granularity ("blocks", after vLLM's
// block table). A block record tracks reference count (active sequences
// pinning it), in-flight copy pins (populate/swap transfers touching it),
// tier residency (a block may be resident on NPU HBM and in DRAM
// simultaneously), whether the block has been committed to the cache index
// and whether an index outside the radix tree (the explicit id index, the PIC
// index) holds its id. The content key itself lives on the radix-tree edge
// that indexes the block, not here. Blocks carry no LRU time: recency lives
// on the radix-tree nodes that index them. The pool has two tiers, NPU HBM
// and host DRAM, and enforces each one's capacity; its NPU-tier count is the
// one record of a TE's HBM KV occupancy.
//
// Extents. Storage is a dense vector of 12-byte slots indexed by the low 32
// bits of the BlockId; the high bits carry a per-slot generation, so a stale
// id (a block destroyed and its slot reused) never aliases the new occupant.
// The unit of every operation is an Extent, a contiguous run of slots whose
// blocks share one generation: block i of an extent has id first + i. Free
// slots sit in an address-ordered list of coalesced ranges. Allocate takes
// the first range that covers the request, else as few of the largest ranges
// as cover it, and grows the slab only when the free ranges cannot, so the
// slab never holds more slots than the peak live block count. A taken range
// gets the highest generation any of its slots had, so every slot's
// generation only moves forward. Each operation checks an extent's bounds and
// that every slot in it is live at the extent's generation, then loops over
// the records; capacity accounting stays per block.
//
// Holders keep a BlockTable: a short list of extents plus its block count.
// Anything that can outlive a block (a copy completion, the id and PIC
// indexes) checks each block's liveness with Exists() before touching it.
//
// Parking. A committed block that no sequence, copy or outside index holds
// and whose only copy sits in DRAM needs no slot: Park frees its slot but
// keeps it counted in used(kDram), and Unpark gives such blocks fresh slots
// without counting them again. Tier capacity never sees the difference.
#ifndef DEEPSERVE_RTC_BLOCK_POOL_H_
#define DEEPSERVE_RTC_BLOCK_POOL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/types.h"
#include "rtc/radix_tree.h"

namespace deepserve::rtc {

using BlockId = int64_t;
inline constexpr BlockId kInvalidBlock = -1;

enum class Tier : uint8_t { kNpu = 0, kDram = 1 };

std::string_view TierToString(Tier tier);

inline constexpr uint8_t TierBit(Tier tier) { return static_cast<uint8_t>(1u << static_cast<uint8_t>(tier)); }

// BlockInfo::flags bits.
inline constexpr uint8_t kBlockCommitted = 1;  // in the cache; unset while private to a sequence
inline constexpr uint8_t kBlockIndexed = 2;    // an id or PIC index holds the block's id

struct BlockInfo {
  int32_t ref_count = 0;  // sequences currently pinning the block
  uint16_t pins = 0;      // in-flight copies touching the block
  uint8_t residency = 0;  // bitmask of TierBit()s
  uint8_t flags = 0;      // kBlockCommitted | kBlockIndexed

  bool resident(Tier tier) const { return (residency & TierBit(tier)) != 0; }
  bool cached() const { return (flags & kBlockCommitted) != 0; }
  bool pinned() const { return pins > 0; }
  // Whether Park may take the block's slot: committed, unreferenced,
  // unpinned, outside every id index, and resident in DRAM alone.
  bool parkable() const {
    return flags == kBlockCommitted && ref_count == 0 && pins == 0 &&
           residency == TierBit(Tier::kDram);
  }
};
static_assert(sizeof(BlockInfo) == 8, "a block record is 8 bytes");

// A contiguous run of `count` blocks in consecutive pool slots, all of one
// generation: block i's id is first + i.
struct Extent {
  BlockId first = kInvalidBlock;
  uint32_t count = 0;

  BlockId end() const { return first + count; }
  bool operator==(const Extent&) const = default;
};

// A block table: an ordered list of extents and the blocks they cover.
// Appending an extent that starts where the last one ends merges the two, so
// a table is always in its one canonical form and equal tables list the same
// blocks. The extent array is held by hand so that a table is 24 bytes and a
// radix-tree node that holds one stays within its size bound.
class BlockTable {
 public:
  BlockTable() = default;
  BlockTable(const BlockTable& other) { *this = other; }
  BlockTable& operator=(const BlockTable& other);
  BlockTable(BlockTable&& other) noexcept { *this = std::move(other); }
  BlockTable& operator=(BlockTable&& other) noexcept {
    extents_ = std::move(other.extents_);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    blocks_ = std::exchange(other.blocks_, 0);
    return *this;
  }

  size_t size() const { return blocks_; }  // in blocks
  bool empty() const { return blocks_ == 0; }
  std::span<const Extent> extents() const { return {extents_.get(), size_}; }
  BlockId front() const { return extents_[0].first; }
  // The id of block `i` (a walk over the extents).
  BlockId operator[](size_t i) const;

  void Append(Extent extent);
  // Appends the first `n` blocks of `other`.
  void Append(const BlockTable& other, size_t n);
  void Append(const BlockTable& other) { Append(other, other.size()); }
  // Blocks [begin, end) as a table of their own.
  BlockTable Slice(size_t begin, size_t end) const;
  // Keeps blocks [0, offset) and returns the rest.
  BlockTable SplitTail(size_t offset);
  void clear() {
    size_ = 0;
    blocks_ = 0;
  }

  bool operator==(const BlockTable& other) const {
    return blocks_ == other.blocks_ && std::ranges::equal(extents(), other.extents());
  }

 private:
  std::unique_ptr<Extent[]> extents_;
  uint32_t size_ = 0;  // extents in use
  uint32_t capacity_ = 0;
  size_t blocks_ = 0;
};
static_assert(sizeof(BlockTable) == 24, "a block table is a pointer and three counts");

struct BlockPoolConfig {
  int64_t npu_capacity = 4096;   // blocks
  int64_t dram_capacity = 16384; // blocks
};

class BlockPool {
 public:
  explicit BlockPool(BlockPoolConfig config);

  // Creates `n` fresh private blocks resident on `tier`, each with ref 1,
  // and appends them to `*out`. Fails with RESOURCE_EXHAUSTED without
  // allocating anything if the tier lacks capacity (caller evicts and
  // retries).
  [[nodiscard]] Status Allocate(int64_t n, Tier tier, BlockTable* out);

  void Ref(Extent extent);
  // Drops one reference from each block. Blocks are never destroyed here
  // once cached — an unreferenced cached block stays preserved until
  // evicted; an unreferenced private (uncached) block is destroyed and its
  // residency released.
  void Unref(Extent extent);

  // Adds a `tier` copy to each block of `extent` not yet resident there, in
  // order, for as long as the tier has room, and appends the blocks it gave
  // one to `*added`.
  void AddResidency(Extent extent, Tier tier, BlockTable* added);
  // Removes the `tier` copy of each block that has one.
  void DropResidency(Extent extent, Tier tier);

  // Destroys unreferenced blocks outright (eviction path). The slots are
  // freed under a new generation, so the old ids stop resolving.
  void Destroy(Extent extent);

  // Marks the blocks as committed to the cache index: from now on their last
  // Unref preserves them instead of destroying them.
  void MarkCached(Extent extent) { OrFlags(extent, kBlockCommitted); }
  // Marks the blocks as held by an index that keeps their full ids (the
  // explicit id index, the PIC index): Park never takes their slots.
  void MarkIndexed(Extent extent) { OrFlags(extent, kBlockIndexed); }

  // Frees the slots of parkable() blocks (a run's). The blocks stay counted
  // in used(kDram); their ids stop resolving, as after Destroy.
  void Park(Extent extent);
  // Gives `n` parked blocks fresh slots — committed, resident in DRAM,
  // unreferenced — without counting them in used(kDram) again, and appends
  // them to `*out`.
  void Unpark(int64_t n, BlockTable* out);

  // In-flight copy pins: a pinned block is never evicted or swapped. Pin
  // needs live blocks; Unpin skips a block destroyed since (its slot possibly
  // reused), so a transfer may complete after its blocks died.
  void Pin(Extent extent);
  void Unpin(Extent extent);

  const BlockInfo& info(BlockId id) const;
  // Negative ids (kInvalidBlock, anything with bit 63 set) never resolve; a
  // valid id's generation has bit 31 clear, so it can only equal the tag of
  // a live slot of that generation.
  bool Exists(BlockId id) const {
    size_t idx = IndexOf(id);
    return id >= 0 && idx < slots_.size() && slots_[idx].tag == (GenOf(id) | kLiveBit);
  }
  // Whether every block of `extent` is live.
  bool Exists(Extent extent) const;

  // How many blocks of the live `extent`, from its start, satisfy
  // `pred(info)` before the first one that does not.
  template <typename Pred>
  uint32_t CountWhile(Extent extent, Pred pred) const {
    const Slot* slot = LiveSlots(extent);
    uint32_t n = 0;
    while (n < extent.count && pred(slot[n].info)) {
      ++n;
    }
    return n;
  }
  // How many blocks of the live `extent` satisfy `pred(info)`.
  template <typename Pred>
  uint32_t CountIf(Extent extent, Pred pred) const {
    const Slot* slot = LiveSlots(extent);
    uint32_t n = 0;
    for (uint32_t i = 0; i < extent.count; ++i) {
      n += pred(slot[i].info) ? 1 : 0;
    }
    return n;
  }

  int64_t used(Tier tier) const { return used_[static_cast<size_t>(tier)]; }
  int64_t capacity(Tier tier) const;
  int64_t free_blocks(Tier tier) const { return capacity(tier) - used(tier); }
  size_t total_blocks() const { return live_count_; }
  // Slots in the slab, live or free, and the slab's heap bytes.
  size_t slab_slots() const { return slots_.size(); }
  size_t slab_bytes() const { return slots_.capacity() * sizeof(Slot); }
  // Free ranges taken (by Allocate and Unpark), and the blocks they covered.
  int64_t range_takes() const { return range_takes_; }
  int64_t blocks_taken() const { return blocks_taken_; }

 private:
  // Bit 31 of a slot's tag is set while a block occupies the slot; bits
  // 0-30 hold the slot's generation, which an id carries in its high word.
  static constexpr uint32_t kLiveBit = 0x80000000u;

  struct Slot {
    BlockInfo info;
    uint32_t tag = 1;  // generation 1, free
  };
  static_assert(sizeof(Slot) == 12, "a block slot is 12 bytes");

  // A free range of slots [first, first + count).
  struct Range {
    uint32_t first;
    uint32_t count;
  };

  static size_t IndexOf(BlockId id) {
    return static_cast<size_t>(static_cast<uint64_t>(id) & 0xffffffffull);
  }
  static uint32_t GenOf(BlockId id) { return static_cast<uint32_t>(static_cast<uint64_t>(id) >> 32); }

  // Checks `extent` and returns its first slot. One check per extent:
  // non-empty, in bounds, and both end slots live at its generation. The
  // caller holds every block between them; a holder that can outlive its
  // blocks checks each one with Exists() instead. Inline, because every
  // extent operation runs it; only the failure path is out of line.
  const Slot* LiveSlots(Extent extent) const {
    const size_t first = IndexOf(extent.first);
    const uint32_t tag = GenOf(extent.first) | kLiveBit;
    if (!(extent.first >= 0 && extent.count > 0 && first + extent.count <= slots_.size() &&
          slots_[first].tag == tag && slots_[first + extent.count - 1].tag == tag)) [[unlikely]] {
      DeadExtent(extent);
    }
    return &slots_[first];
  }
  Slot* LiveSlots(Extent extent) {
    return const_cast<Slot*>(std::as_const(*this).LiveSlots(extent));
  }
  // LiveSlots' failure path: aborts with the extent in the message.
  [[noreturn]] static void DeadExtent(Extent extent);
  void OrFlags(Extent extent, uint8_t flags);
  // Takes `n` free slots (growing the slab if the free ranges lack them),
  // stores `info` in each, and appends the new blocks to `*out`.
  void TakeSlots(int64_t n, const BlockInfo& info, BlockTable* out);
  void TakeRange(size_t range, uint32_t n, const BlockInfo& info, BlockTable* out);
  // Frees `count` live slots from `first` under their next generation.
  void ReleaseSlots(size_t first, size_t count);
  // Adds free slots [first, first + count) to the free list, coalescing.
  void AddFreeRange(size_t first, size_t count);
  // Uncounts the tier copies of a block that is going away.
  void DropAllResidency(const BlockInfo& info);

  BlockPoolConfig config_;
  std::vector<Slot> slots_;
  std::vector<Range> free_;  // address-ordered, coalesced
  size_t live_count_ = 0;
  int64_t used_[2] = {0, 0};
  int64_t range_takes_ = 0;
  int64_t blocks_taken_ = 0;
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_BLOCK_POOL_H_
