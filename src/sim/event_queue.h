// Slab-allocated binary-heap event queue — the DES hot path.
//
//   * Event records live in a chunked slab, addressed by stable 32-bit slot
//     indices and recycled through a free list. A handle is
//     (generation << 32) | slot, so a stale handle (fired, cancelled, or
//     recycled event) is detected by a generation compare — Cancel is an O(1)
//     tombstone write, with no auxiliary hash set and no double lookup.
//   * Scheduling order is a binary min-heap of 32-byte
//     {time, ordered_at, seq, slot} entries (std::push_heap / std::pop_heap). A cancelled record keeps its
//     slot and heap entry until the entry reaches the top, where PopIfDue
//     frees it — or until cancelled entries outnumber live ones, when one
//     compaction drops them all and rebuilds the heap. The slab and the heap
//     therefore stay within about 2x the live population even when most
//     deadline guards are cancelled long before they fall due.
//   * Callbacks are SmallFn (common/small_fn.h): captures up to 48 bytes are
//     stored inline in the slab record, so the schedule/fire cycle performs
//     zero heap traffic for the lambdas the engine/JE/CM actually schedule.
//
// Determinism contract: extraction order is the strict total order
// (time, ordered_at, seq) with seq assigned at insertion. The Simulator passes
// its clock as ordered_at, which never decreases, so for every ordinary event
// this is FIFO among equal times; an event inserted "as of" a later instant
// sorts among equal-time events as if it had been inserted then. Replay is
// bit-identical. Compaction timing affects only cost, never order.
#ifndef DEEPSERVE_SIM_EVENT_QUEUE_H_
#define DEEPSERVE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_fn.h"
#include "common/types.h"

namespace deepserve::sim {

class EventQueue {
 public:
  // Handle encoding: low 32 bits slot index, high 32 bits generation
  // (generations start at 1, so a valid handle is never 0).
  using Handle = uint64_t;
  static constexpr Handle kNilHandle = 0;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts a callback at virtual time t (>= ordered_at). Among equal
  // timestamps it fires after every entry with a smaller ordered_at, and in
  // insertion order among entries with the same one.
  Handle Insert(TimeNs t, TimeNs ordered_at, common::SmallFn fn);

  // O(1) amortized: tombstones a live record. Returns false — with no side
  // effects — for a handle that already fired, was already cancelled, or was
  // never issued.
  bool Cancel(Handle h);

  // True iff the handle refers to a scheduled, not-yet-fired event.
  bool Live(Handle h) const;

  // Extracts the earliest live event if its time is <= limit; fills *t,
  // *ordered_at and *fn and returns true. Returns false when the queue is
  // empty or the earliest event lies beyond the limit. Tombstoned records
  // encountered on the way are freed.
  bool PopIfDue(TimeNs limit, TimeNs* t, TimeNs* ordered_at, common::SmallFn* fn);

  // Live (scheduled, uncancelled) events.
  size_t live() const { return live_; }
  bool empty() const { return live_ == 0; }

  // Slab slots ever allocated (live, tombstoned and free), for tests.
  size_t slab_slots() const { return slot_count_; }

 private:
  enum class SlotState : uint8_t { kFree = 0, kScheduled = 1, kCancelled = 2 };

  struct Record {
    uint32_t gen = 1;
    SlotState state = SlotState::kFree;
    common::SmallFn fn;
  };

  struct Entry {
    TimeNs time;
    TimeNs ordered_at;
    uint64_t seq;
    uint32_t slot;
  };

  static constexpr size_t kChunkShift = 9;  // 512 records per slab chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  static uint32_t IndexOf(Handle h) { return static_cast<uint32_t>(h & 0xffffffffu); }
  static uint32_t GenOf(Handle h) { return static_cast<uint32_t>(h >> 32); }

  Record& Rec(uint32_t idx) { return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)]; }
  const Record& Rec(uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  // Heap comparator: true when a fires after b, so the heap's front is the
  // (time, ordered_at, seq) minimum.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    if (a.ordered_at != b.ordered_at) {
      return a.ordered_at > b.ordered_at;
    }
    return a.seq > b.seq;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);
  // Removes the heap's front entry.
  void PopTop();
  // Frees every tombstoned record and rebuilds the heap from the live ones.
  void Compact();

  // ---- slab ----------------------------------------------------------------
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<uint32_t> free_slots_;  // LIFO
  size_t slot_count_ = 0;

  // ---- heap ----------------------------------------------------------------
  std::vector<Entry> heap_;  // live and tombstoned entries
  size_t live_ = 0;
  size_t dead_ = 0;  // tombstoned entries still in heap_
  uint64_t next_seq_ = 1;
};

}  // namespace deepserve::sim

#endif  // DEEPSERVE_SIM_EVENT_QUEUE_H_
