// Direct tests for the slab-allocated binary-heap event queue, below the
// Simulator API: handle generation checking, tombstone sweeping and
// compaction, and exact (time, insertion-order) extraction parity against a
// naive reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/small_fn.h"
#include "common/time_units.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace deepserve::sim {
namespace {

using common::SmallFn;

// Pops and invokes every remaining event; returns the number popped. Markers
// accumulate in the vectors the callbacks captured at insertion.
size_t Drain(EventQueue& q) {
  size_t n = 0;
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  while (q.PopIfDue(kTimeNever, &t, &as_of, &fn)) {
    fn();
    fn.Reset();
    ++n;
  }
  return n;
}

// Inserts an event whose callback appends `marker` to `*out`.
EventQueue::Handle InsertMarked(EventQueue& q, TimeNs t, std::vector<uint64_t>* out,
                                uint64_t marker) {
  return q.Insert(t, 0, [out, marker] { out->push_back(marker); });
}

TEST(EventQueueTest, PopsInTimeThenFifoOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  // Shuffled times with duplicates; marker = insertion order.
  const TimeNs times[] = {50, 10, 50, 30, 10, 50, 20, 10};
  for (uint64_t i = 0; i < 8; ++i) {
    InsertMarked(q, times[i], &fired, i);
  }
  EXPECT_EQ(q.live(), 8u);
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  TimeNs prev = 0;
  while (q.PopIfDue(kTimeNever, &t, &as_of, &fn)) {
    EXPECT_GE(t, prev);
    prev = t;
    fn();
    fn.Reset();
  }
  // Time order, FIFO within each timestamp.
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 4, 7, 6, 3, 0, 2, 5}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PopIfDueRespectsLimit) {
  EventQueue q;
  std::vector<uint64_t> fired;
  InsertMarked(q, 10, &fired, 10);
  InsertMarked(q, 20, &fired, 20);
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  ASSERT_TRUE(q.PopIfDue(15, &t, &as_of, &fn));
  EXPECT_EQ(t, 10);
  fn.Reset();
  EXPECT_FALSE(q.PopIfDue(15, &t, &as_of, &fn)) << "event at 20 is beyond the limit";
  EXPECT_EQ(q.live(), 1u);
  ASSERT_TRUE(q.PopIfDue(20, &t, &as_of, &fn));
  EXPECT_EQ(t, 20);
}

TEST(EventQueueTest, HandlesAreGenerationCheckedAcrossSlotReuse) {
  EventQueue q;
  std::vector<uint64_t> fired;
  EventQueue::Handle a = InsertMarked(q, 5, &fired, 1);
  EXPECT_NE(a, EventQueue::kNilHandle);
  EXPECT_TRUE(q.Live(a));

  TimeNs t = 0;

  TimeNs as_of = 0;
  SmallFn fn;
  ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &as_of, &fn));
  fn.Reset();
  EXPECT_FALSE(q.Live(a));
  EXPECT_FALSE(q.Cancel(a)) << "handle already fired";

  // The freed slot is recycled under a new generation: the old handle stays
  // dead and must not alias the new occupant.
  EventQueue::Handle b = InsertMarked(q, 7, &fired, 2);
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.Live(a));
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_TRUE(q.Live(b));
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_FALSE(q.Cancel(b)) << "double cancel";
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelStormLeavesSurvivorsInOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  std::vector<EventQueue::Handle> handles;
  for (uint64_t i = 0; i < 1000; ++i) {
    handles.push_back(InsertMarked(q, static_cast<TimeNs>((i * 37) % 500), &fired, i));
  }
  // Tombstone ~90%: everything except multiples of 10.
  for (uint64_t i = 0; i < 1000; ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(q.Cancel(handles[i]));
    }
  }
  EXPECT_EQ(q.live(), 100u);
  EXPECT_EQ(Drain(q), 100u);
  // Survivors extracted in (time, insertion-order): rebuild expectation.
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> expected;
  for (uint64_t i = 0; i < 1000; i += 10) {
    expected[{static_cast<TimeNs>((i * 37) % 500), i}] = i;
  }
  ASSERT_EQ(fired.size(), expected.size());
  size_t pos = 0;
  for (const auto& [key, marker] : expected) {
    EXPECT_EQ(fired[pos++], marker);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, InsertBehindScanWindowStillPopsFirst) {
  EventQueue q;
  std::vector<uint64_t> fired;
  // A probe with only a far-future event queued pops nothing...
  InsertMarked(q, SToNs(1000), &fired, 1);
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  EXPECT_FALSE(q.PopIfDue(100, &t, &as_of, &fn));
  // ...and a near-term insert made after the probe still pops first.
  InsertMarked(q, 10, &fired, 2);
  ASSERT_TRUE(q.PopIfDue(100, &t, &as_of, &fn));
  EXPECT_EQ(t, 10);
  fn();
  fn.Reset();
  ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &as_of, &fn));
  EXPECT_EQ(t, SToNs(1000));
  fn();
  EXPECT_EQ(fired, (std::vector<uint64_t>{2, 1}));
}

TEST(EventQueueTest, SparseAndClusteredTimesInterleave) {
  EventQueue q;
  std::vector<uint64_t> fired;
  InsertMarked(q, SToNs(3600), &fired, 0);  // an hour out
  InsertMarked(q, 5, &fired, 1);
  InsertMarked(q, SToNs(1), &fired, 2);
  InsertMarked(q, 6, &fired, 3);
  InsertMarked(q, SToNs(3600), &fired, 4);  // equal-time FIFO at the far end
  Drain(q);
  EXPECT_EQ(fired, (std::vector<uint64_t>{1, 3, 2, 0, 4}));
}

TEST(EventQueueTest, LargeClumpyDrainAndRefillPreservesExactOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> model;  // (time, ord) -> marker
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  // A large population with deliberately clumpy times: many equal-time ties
  // within each clump and wide gaps between clumps.
  for (uint64_t i = 0; i < 20000; ++i) {
    TimeNs t = static_cast<TimeNs>(next() % 1000 + (next() % 8) * 100000);
    InsertMarked(q, t, &fired, i);
    model[{t, i}] = i;
  }
  // Drain almost all of it in nondecreasing time.
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  TimeNs prev = 0;
  for (int i = 0; i < 19900; ++i) {
    ASSERT_TRUE(q.PopIfDue(kTimeNever, &t, &as_of, &fn));
    ASSERT_GE(t, prev);
    prev = t;
    fn();
    fn.Reset();
  }
  // Refill beyond the survivors, then drain fully.
  for (uint64_t i = 20000; i < 21000; ++i) {
    TimeNs ti = prev + static_cast<TimeNs>(next() % 5000);
    InsertMarked(q, ti, &fired, i);
    model[{ti, i}] = i;
  }
  Drain(q);
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(fired.size(), model.size());
  size_t pos = 0;
  for (const auto& [key, marker] : model) {
    ASSERT_EQ(fired[pos], marker) << "extraction diverged at position " << pos;
    ++pos;
  }
}

// Events nanoseconds and seconds away, inserted interleaved, fire in exact
// (time, seq) order — including FIFO ties among the far ones.
TEST(EventQueueTest, NearAndFarEventsFireInExactOrder) {
  EventQueue q;
  std::vector<uint64_t> fired;
  // Near cluster: nanosecond-scale. Far cluster: seconds out, interleaved
  // insertion so seq ordering crosses the near/far boundary.
  InsertMarked(q, 100, &fired, 0);
  InsertMarked(q, SToNs(5), &fired, 1);
  InsertMarked(q, 200, &fired, 2);
  InsertMarked(q, SToNs(5), &fired, 3);  // same far time, later seq
  InsertMarked(q, SToNs(2), &fired, 4);
  EXPECT_EQ(Drain(q), 5u);
  EXPECT_EQ(fired, (std::vector<uint64_t>{0, 2, 4, 1, 3}));
}

// A limit-bounded pop before every timer returns false without disturbing
// them, and they all still fire later in order.
TEST(EventQueueTest, LimitBeforeFarTimersPopsNothingAndKeepsThem) {
  EventQueue q;
  std::vector<uint64_t> fired;
  for (uint64_t i = 0; i < 100; ++i) {
    InsertMarked(q, SToNs(1) + static_cast<TimeNs>(i), &fired, i);
  }
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  EXPECT_FALSE(q.PopIfDue(MsToNs(1), &t, &as_of, &fn));
  EXPECT_EQ(q.live(), 100u);
  EXPECT_EQ(Drain(q), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[i], i);
  }
}

// The deadline-guard pattern: batches of far timers, 90% cancelled long
// before due. Cancellations compact out of the heap and the survivors fire
// in exact order.
TEST(EventQueueTest, MassCancelledFarTimersCompactAndSurvivorsFire) {
  EventQueue q;
  std::vector<uint64_t> fired;
  std::map<std::pair<TimeNs, uint64_t>, uint64_t> expected;
  uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<EventQueue::Handle> handles;
  std::vector<TimeNs> times;
  for (uint64_t i = 0; i < 5000; ++i) {
    TimeNs t = SToNs(1) + static_cast<TimeNs>(next() % 1000000);
    handles.push_back(InsertMarked(q, t, &fired, i));
    times.push_back(t);
    expected[{t, i}] = i;
  }
  size_t cancelled = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    if (i % 10 != 9) {
      ASSERT_TRUE(q.Cancel(handles[i]));
      expected.erase({times[i], i});
      ++cancelled;
    }
  }
  EXPECT_EQ(q.live(), 5000u - cancelled);
  EXPECT_EQ(Drain(q), 5000u - cancelled);
  ASSERT_EQ(fired.size(), expected.size());
  size_t pos = 0;
  for (const auto& [key, marker] : expected) {
    EXPECT_EQ(fired[pos], marker) << "survivor order diverged at " << pos;
    ++pos;
  }
}

// perf_sim's cancel_storm pattern: each 100 us round schedules 5000 timers,
// 80% of them deadline guards ~1 s out and 90% of those cancelled at once.
// Cancelled guards must give their slab slots back long before their due
// time, so the slab stays within a small multiple of the live population; a
// queue that frees a tombstone only when its time comes would hold every
// cancelled guard (~12x the live peak here).
TEST(EventQueueTest, CancelStormReusesSlots) {
  constexpr int kRounds = 100;
  constexpr int kBatch = 5000;
  EventQueue q;
  uint64_t fired = 0;
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  TimeNs now = 0;
  size_t peak_live = 0;
  std::vector<EventQueue::Handle> guards;
  for (int round = 0; round < kRounds; ++round) {
    guards.clear();
    for (int i = 0; i < kBatch; ++i) {
      uint64_t r = next();
      if (i % 5 == 4) {
        q.Insert(now + 1 + static_cast<TimeNs>(r % 100000), now, [&fired] { ++fired; });
      } else {
        guards.push_back(
            q.Insert(now + SToNs(1) + static_cast<TimeNs>(r % 100000), now, [&fired] { ++fired; }));
      }
    }
    peak_live = std::max(peak_live, q.live());
    for (size_t g = 0; g < guards.size(); ++g) {
      if (g % 10 != 9) {
        ASSERT_TRUE(q.Cancel(guards[g]));
      }
    }
    now += UsToNs(100);
    TimeNs t = 0;
    TimeNs as_of = 0;
    SmallFn fn;
    while (q.PopIfDue(now, &t, &as_of, &fn)) {
      fn();
      fn.Reset();
    }
  }
  EXPECT_LE(q.slab_slots(), 4 * peak_live)
      << "cancelled guards held their slots; peak live " << peak_live;
  Drain(q);
  // Every near-term timer and every uncancelled guard fires.
  EXPECT_EQ(fired, static_cast<uint64_t>(kRounds) * (kBatch / 5 + kBatch * 4 / 5 / 10));
}

// Cancelled heads must not stand in for the next live event: a limit
// between them and it pops nothing, a limit past it pops the live one.
TEST(EventQueueTest, CancelledEarliestDoesNotHideADueEvent) {
  EventQueue q;
  std::vector<uint64_t> fired;
  EventQueue::Handle first = InsertMarked(q, 10, &fired, 1);
  EventQueue::Handle second = InsertMarked(q, 15, &fired, 2);
  InsertMarked(q, 30, &fired, 3);
  ASSERT_TRUE(q.Cancel(first));
  ASSERT_TRUE(q.Cancel(second));
  TimeNs t = 0;
  TimeNs as_of = 0;
  SmallFn fn;
  EXPECT_FALSE(q.PopIfDue(20, &t, &as_of, &fn)) << "only cancelled events are due by 20";
  EXPECT_EQ(q.live(), 1u);
  ASSERT_TRUE(q.PopIfDue(40, &t, &as_of, &fn));
  EXPECT_EQ(t, 30);
  fn();
  EXPECT_EQ(fired, (std::vector<uint64_t>{3}));
  EXPECT_TRUE(q.empty());
}

// Cancel releases the callback's captures at once, long before the
// tombstone's entry is swept from the heap.
TEST(EventQueueTest, CancelReleasesCapturesBeforeTheSweep) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  EventQueue::Handle h = q.Insert(SToNs(10), 0, [token] { ++*token; });
  q.Insert(SToNs(20), 0, [] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(q.Cancel(h));
  EXPECT_EQ(token.use_count(), 1) << "the cancelled callback still holds its capture";
  EXPECT_EQ(Drain(q), 1u);
  EXPECT_EQ(*token, 0);
}

// Equal-time inserts keep FIFO order across a cancel burst large enough to
// compact the heap (cancelled entries outnumber live ones, more than 64).
TEST(EventQueueTest, EqualTimeFifoSurvivesCompaction) {
  constexpr uint64_t kEvents = 1000;
  EventQueue q;
  std::vector<uint64_t> fired;
  std::vector<EventQueue::Handle> handles;
  for (uint64_t i = 0; i < kEvents; ++i) {
    handles.push_back(InsertMarked(q, 500, &fired, i));
  }
  const size_t slots_before = q.slab_slots();
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < kEvents; ++i) {
    if (i % 7 == 3) {
      expected.push_back(i);
    } else {
      ASSERT_TRUE(q.Cancel(handles[i]));
    }
  }
  // Compaction returned most cancelled slots to the free list: the next
  // inserts reuse them instead of growing the slab.
  for (uint64_t i = kEvents; i < kEvents + kEvents / 2; ++i) {
    InsertMarked(q, 500, &fired, i);
    expected.push_back(i);
  }
  EXPECT_EQ(q.slab_slots(), slots_before) << "cancelled slots were not reclaimed";
  EXPECT_EQ(Drain(q), expected.size());
  EXPECT_EQ(fired, expected);
}

// Randomized parity: 50k mixed insert/cancel/pop operations against a naive
// ordered-map reference. Checks exact extraction order, live counts, and
// Cancel()/Live() agreement with the model at every step.
TEST(EventQueueTest, RandomOpsMatchReferenceModel) {
  EventQueue q;
  struct ModelEvent {
    EventQueue::Handle handle;
    uint64_t marker;
  };
  std::map<std::pair<TimeNs, uint64_t>, ModelEvent> model;  // (time, ord) -> event
  std::map<EventQueue::Handle, std::pair<TimeNs, uint64_t>> by_handle;
  std::vector<EventQueue::Handle> all_handles;
  std::vector<uint64_t> fired;
  uint64_t ord = 0;
  TimeNs now = 0;
  uint64_t state = 424242;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int op = 0; op < 50000; ++op) {
    uint64_t r = next() % 100;
    if (r < 55 || all_handles.empty()) {
      // Mixed horizon: mostly microseconds ahead, one insert in 20 up to 10 s.
      TimeNs horizon = (next() % 20 == 0) ? SToNs(10) : TimeNs{20000};
      TimeNs t = now + static_cast<TimeNs>(next() % static_cast<uint64_t>(horizon));
      uint64_t o = ord++;
      EventQueue::Handle h = InsertMarked(q, t, &fired, o);
      model[{t, o}] = ModelEvent{h, o};
      by_handle[h] = {t, o};
      all_handles.push_back(h);
    } else if (r < 80) {
      EventQueue::Handle h = all_handles[next() % all_handles.size()];
      auto it = by_handle.find(h);
      bool was_live = it != by_handle.end();
      ASSERT_EQ(q.Live(h), was_live);
      ASSERT_EQ(q.Cancel(h), was_live);
      if (was_live) {
        model.erase(it->second);
        by_handle.erase(it);
      }
    } else {
      TimeNs t = 0;
      TimeNs as_of = 0;
      SmallFn fn;
      bool popped = q.PopIfDue(kTimeNever, &t, &as_of, &fn);
      ASSERT_EQ(popped, !model.empty());
      if (popped) {
        auto it = model.begin();
        ASSERT_EQ(t, it->first.first);
        size_t before = fired.size();
        fn();
        fn.Reset();
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), it->second.marker) << "popped a non-minimum event";
        ASSERT_GE(t, now);
        now = t;
        by_handle.erase(it->second.handle);
        model.erase(it);
      }
    }
    ASSERT_EQ(q.live(), model.size()) << "after op " << op;
  }
  Drain(q);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace deepserve::sim
