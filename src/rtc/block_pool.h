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
// Storage is a dense vector of 12-byte slots indexed by the low 32 bits of
// the BlockId, with destroyed slots recycled through a free list. The high
// bits carry a per-slot generation, so a stale id (a block destroyed and its
// slot reused) never aliases the new occupant. A slot keeps its generation
// and a live bit in one word, so Exists() is a bounds check plus one compare,
// and every Ref/Unref/Pin on the engine's per-token hot path is a direct
// index instead of an unordered_map lookup. Holders that know a slot is live
// (the RTC tree's block runs) may store just the 4-byte slot index and
// rebuild the id with IdAt().
//
// Parking. A committed block that no sequence, copy or outside index holds
// and whose only copy sits in DRAM needs no slot: Park frees its slot but
// keeps it counted in used(kDram), and Unpark gives such a block a fresh
// slot without counting it again. Tier capacity never sees the difference.
#ifndef DEEPSERVE_RTC_BLOCK_POOL_H_
#define DEEPSERVE_RTC_BLOCK_POOL_H_

#include <cstdint>
#include <span>
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

struct BlockPoolConfig {
  int64_t npu_capacity = 4096;   // blocks
  int64_t dram_capacity = 16384; // blocks
};

class BlockPool {
 public:
  explicit BlockPool(BlockPoolConfig config);

  // Creates `n` fresh private blocks resident on `tier`, each with ref 1,
  // and appends their ids to `*out`. Fails with RESOURCE_EXHAUSTED without
  // allocating anything if the tier lacks capacity (caller evicts and
  // retries).
  [[nodiscard]] Status Allocate(int64_t n, Tier tier, std::vector<BlockId>* out);

  void Ref(BlockId id) { ++mutable_info(id).ref_count; }
  // Drops one reference. Blocks are never destroyed here — an unreferenced
  // cached block stays preserved until evicted; an unreferenced private
  // (uncached) block is destroyed and its residency released.
  void Unref(BlockId id);

  // Adds/removes a tier copy. AddResidency fails when the tier is full.
  [[nodiscard]] Status AddResidency(BlockId id, Tier tier);
  void DropResidency(BlockId id, Tier tier);

  // Destroys an unreferenced block outright (eviction path). The slot is
  // recycled under a new generation, so the old id stops resolving.
  void Destroy(BlockId id);

  // Marks the block as committed to the cache index: from now on its last
  // Unref preserves it instead of destroying it.
  void MarkCached(BlockId id) { mutable_info(id).flags |= kBlockCommitted; }
  // Marks the block as held by an index that keeps its full id (the explicit
  // id index, the PIC index): Park never takes its slot.
  void MarkIndexed(BlockId id) { mutable_info(id).flags |= kBlockIndexed; }

  // Frees `slot`, which holds a parkable() block (a run's entry). The block
  // stays counted in used(kDram); its id stops resolving, as after Destroy.
  void Park(uint32_t slot);
  // Gives one parked block a fresh slot — committed, resident in DRAM,
  // unreferenced — without counting it in used(kDram) again, and returns its
  // id.
  BlockId Unpark();

  // In-flight copy pins: a pinned block is never evicted or swapped. Pin
  // needs a live block; Unpin of a block destroyed since (its slot possibly
  // reused) is a no-op, so a transfer may complete after its block died.
  void Pin(BlockId id);
  void Unpin(BlockId id);

  const BlockInfo& info(BlockId id) const;
  // Negative ids (kInvalidBlock, anything with bit 63 set) never resolve; a
  // valid id's generation has bit 31 clear, so it can only equal the tag of
  // a live slot of that generation.
  bool Exists(BlockId id) const {
    size_t idx = IndexOf(id);
    return id >= 0 && idx < slots_.size() && slots_[idx].tag == (GenOf(id) | kLiveBit);
  }

  // Slot index of a live block, and back: IdAt rebuilds the full id of the
  // block now in `slot`, which must be live, and InfoAt reads its record.
  static uint32_t SlotOf(BlockId id) { return static_cast<uint32_t>(IndexOf(id)); }
  BlockId IdAt(uint32_t slot) const;
  const BlockInfo& InfoAt(uint32_t slot) const {
    DS_CHECK(slot < slots_.size() && (slots_[slot].tag & kLiveBit) != 0)
        << "block slot " << slot << " is not live";
    return slots_[slot].info;
  }

  int64_t used(Tier tier) const { return used_[static_cast<size_t>(tier)]; }
  int64_t capacity(Tier tier) const;
  int64_t free_blocks(Tier tier) const { return capacity(tier) - used(tier); }
  size_t total_blocks() const { return live_count_; }
  // Heap bytes of the slot slab (its capacity, live or free).
  size_t slab_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  // Bit 31 of a slot's tag is set while a block occupies the slot; bits
  // 0-30 hold the slot's generation, which an id carries in its high word.
  static constexpr uint32_t kLiveBit = 0x80000000u;

  struct Slot {
    BlockInfo info;
    uint32_t tag = 1;  // generation 1, free
  };
  static_assert(sizeof(Slot) == 12, "a block slot is 12 bytes");

  static size_t IndexOf(BlockId id) {
    return static_cast<size_t>(static_cast<uint64_t>(id) & 0xffffffffull);
  }
  static uint32_t GenOf(BlockId id) { return static_cast<uint32_t>(static_cast<uint64_t>(id) >> 32); }

  BlockInfo& mutable_info(BlockId id);
  // Takes a free slot (recycled or new), marks it live, stores `info` and
  // returns the new occupant's id; ReleaseSlot frees it under the next
  // generation.
  BlockId TakeSlot(const BlockInfo& info);
  void ReleaseSlot(size_t idx);

  BlockPoolConfig config_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // LIFO
  size_t live_count_ = 0;
  int64_t used_[2] = {0, 0};
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_BLOCK_POOL_H_
