#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace deepserve::sim {

uint32_t EventQueue::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  DS_CHECK_LT(slot_count_, size_t{0xffffffffu}) << "event slab exhausted";
  if ((slot_count_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
  }
  return static_cast<uint32_t>(slot_count_++);
}

void EventQueue::FreeSlot(uint32_t idx) {
  Record& r = Rec(idx);
  r.fn.Reset();
  r.state = SlotState::kFree;
  ++r.gen;
  if (r.gen == 0) {  // generation wrap: 0 is reserved so handles stay nonzero
    r.gen = 1;
  }
  free_slots_.push_back(idx);
}

EventQueue::Handle EventQueue::Insert(TimeNs t, TimeNs ordered_at, common::SmallFn fn) {
  DS_CHECK_GE(ordered_at, 0);
  DS_CHECK_GE(t, ordered_at);
  uint32_t idx = AllocSlot();
  Record& r = Rec(idx);
  r.state = SlotState::kScheduled;
  r.fn = std::move(fn);
  heap_.push_back(Entry{t, ordered_at, next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  ++live_;
  return (static_cast<uint64_t>(r.gen) << 32) | idx;
}

bool EventQueue::Cancel(Handle h) {
  if (!Live(h)) {
    return false;
  }
  Record& r = Rec(IndexOf(h));
  r.state = SlotState::kCancelled;
  r.fn.Reset();  // release captures now; the tombstone is freed when swept
  --live_;
  ++dead_;
  if (dead_ > live_ && dead_ > 64) {
    Compact();
  }
  return true;
}

bool EventQueue::Live(Handle h) const {
  if (h == kNilHandle) {
    return false;
  }
  uint32_t idx = IndexOf(h);
  if (idx >= slot_count_) {
    return false;
  }
  const Record& r = Rec(idx);
  return r.state == SlotState::kScheduled && r.gen == GenOf(h);
}

void EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
}

void EventQueue::Compact() {
  size_t kept = 0;
  for (const Entry& e : heap_) {
    if (Rec(e.slot).state == SlotState::kScheduled) {
      heap_[kept++] = e;
    } else {
      FreeSlot(e.slot);
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later);
  dead_ = 0;
  DS_CHECK_EQ(kept, live_);
}

bool EventQueue::PopIfDue(TimeNs limit, TimeNs* t, TimeNs* ordered_at, common::SmallFn* fn) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    Record& r = Rec(top.slot);
    if (r.state == SlotState::kCancelled) {
      PopTop();
      FreeSlot(top.slot);
      --dead_;
      continue;
    }
    if (top.time > limit) {
      return false;
    }
    PopTop();
    --live_;
    *t = top.time;
    *ordered_at = top.ordered_at;
    *fn = std::move(r.fn);
    FreeSlot(top.slot);
    return true;
  }
  return false;
}

}  // namespace deepserve::sim
