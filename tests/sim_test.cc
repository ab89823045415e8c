#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace deepserve::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, FifoTieBreakAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeNs inner_time = -1;
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAfter(25, [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, 75);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) {
      sim.ScheduleAfter(1, chain);
    }
  };
  sim.ScheduleAfter(1, chain);
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.Now(), 10);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(99999));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  EventId id = sim.ScheduleAt(10, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<TimeNs> fired;
  sim.ScheduleAt(10, [&] { fired.push_back(10); });
  sim.ScheduleAt(20, [&] { fired.push_back(20); });
  sim.ScheduleAt(30, [&] { fired.push_back(30); });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(fired.back(), 30);
}

// Step, Run and RunUntil share one fire step: driving the same schedule by
// single steps or by RunUntil windows fires the same events in the same order
// at the same times, and counts them alike in TotalFired and the registry.
TEST(SimulatorTest, StepAndRunUntilFireAndCountAlike) {
  struct Driven {
    Simulator sim;
    obs::MetricsRegistry metrics;
    std::vector<std::pair<int, TimeNs>> fired;
    void Schedule() {
      sim.SetMetrics(&metrics);
      for (int i = 0; i < 6; ++i) {
        sim.ScheduleAt(10 * (6 - i), [this, i] {
          fired.emplace_back(i, sim.Now());
          if (i % 2 == 0) {
            sim.ScheduleAfter(5, [this, i] { fired.emplace_back(100 + i, sim.Now()); });
          }
        });
      }
      EventId dropped = sim.ScheduleAt(25, [this] { fired.emplace_back(-1, sim.Now()); });
      EXPECT_TRUE(sim.Cancel(dropped));
    }
  };
  Driven stepped;
  stepped.Schedule();
  size_t steps = 0;
  while (stepped.sim.Step()) {
    ++steps;
  }
  Driven windowed;
  windowed.Schedule();
  size_t in_windows = 0;
  for (TimeNs t = 0; t <= 80; t += 15) {
    in_windows += windowed.sim.RunUntil(t);
    EXPECT_EQ(windowed.sim.Now(), t);
  }
  EXPECT_EQ(steps, 9u);  // 6 scheduled + 3 follow-ups, the cancelled one never
  EXPECT_EQ(in_windows, steps);
  EXPECT_EQ(windowed.fired, stepped.fired);
  EXPECT_EQ(windowed.sim.TotalFired(), stepped.sim.TotalFired());
  EXPECT_EQ(stepped.metrics.counter("sim.events_fired")->value(), 9);
  EXPECT_EQ(windowed.metrics.counter("sim.events_fired")->value(), 9);
}

TEST(SimulatorTest, RunUntilAdvancesPastEmptyQueue) {
  Simulator sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, StepSkipsCancelled) {
  Simulator sim;
  bool fired = false;
  EventId a = sim.ScheduleAt(1, [&] { fired = true; });
  sim.ScheduleAt(2, [&] { fired = true; });
  sim.Cancel(a);
  EXPECT_TRUE(sim.Step());
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), 2);
}

TEST(SimulatorTest, PendingCountTracksCancellations) {
  Simulator sim;
  EventId a = sim.ScheduleAt(5, [] {});
  sim.ScheduleAt(6, [] {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Empty());
  sim.Run();
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, TotalFiredExcludesCancelled) {
  Simulator sim;
  EventId a = sim.ScheduleAt(1, [] {});
  sim.ScheduleAt(2, [] {});
  sim.Cancel(a);
  sim.Run();
  EXPECT_EQ(sim.TotalFired(), 1u);
}

// Regression: Cancel of an id that already fired must be a no-op. The old
// binary-heap core only checked the *global* pending count, so cancelling a
// fired id while other events were pending "succeeded" and decremented the
// count for an event still in the queue.
TEST(SimulatorTest, CancelAfterFireIsNoopWithPendingEvents) {
  Simulator sim;
  EventId fired_id = sim.ScheduleAt(1, [] {});
  sim.ScheduleAt(5, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Cancel(fired_id));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Empty());
  EXPECT_EQ(sim.Run(), 1u);
  EXPECT_TRUE(sim.Empty());
}

// Regression: same bug, never-issued id while events are pending.
TEST(SimulatorTest, CancelUnknownIdWithPendingEventsIsNoop) {
  Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [] {});
  EXPECT_FALSE(sim.Cancel(0xdeadbeefdeadbeefull));
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_EQ(sim.Run(), 2u);
}

// Regression: once a cancelled event's tombstone has been swept (its heap
// entry popped), the old core forgot the id entirely, so a later Cancel of the
// same id could "succeed" a second time against an unrelated pending event.
TEST(SimulatorTest, CancelAfterTombstoneSweepStaysNoop) {
  Simulator sim;
  EventId a = sim.ScheduleAt(1, [] {});
  sim.ScheduleAt(2, [] {});
  EXPECT_TRUE(sim.Cancel(a));
  sim.Run();  // sweeps a's tombstone
  sim.ScheduleAt(3, [] {});
  EXPECT_FALSE(sim.Cancel(a));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.Run(), 1u);
}

TEST(SimulatorTest, IsScheduledTracksLifecycle) {
  Simulator sim;
  EXPECT_FALSE(sim.IsScheduled(kInvalidEventId));
  EventId a = sim.ScheduleAt(10, [] {});
  EventId b = sim.ScheduleAt(20, [] {});
  EXPECT_TRUE(sim.IsScheduled(a));
  EXPECT_TRUE(sim.IsScheduled(b));
  sim.Cancel(b);
  EXPECT_FALSE(sim.IsScheduled(b));
  sim.Step();
  EXPECT_FALSE(sim.IsScheduled(a));
}

// Property: across 10k mixed schedule/cancel/step/run-until operations with a
// fixed seed, PendingEvents() equals the reference model's live-event count
// after every operation, Cancel agrees exactly with model liveness, and every
// firing is the model's earliest (time, insertion-order) live event.
TEST(SimulatorTest, PropertyPendingCountMatchesLiveEventsAcross10kOps) {
  Simulator sim;
  struct Model {
    // Live events ordered by (time, schedule order) — the firing order.
    std::map<std::pair<TimeNs, uint64_t>, EventId> order;
    std::map<EventId, std::pair<TimeNs, uint64_t>> by_id;
  } model;
  uint64_t schedule_counter = 0;
  uint64_t state = 2026;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<EventId> all_ids;  // live, fired, and cancelled alike
  for (int op = 0; op < 10000; ++op) {
    uint64_t r = next() % 100;
    if (r < 55 || all_ids.empty()) {
      TimeNs t = sim.Now() + static_cast<TimeNs>(next() % 5000);
      uint64_t ord = schedule_counter++;
      auto holder = std::make_shared<EventId>(kInvalidEventId);
      EventId id = sim.ScheduleAt(t, [&model, &sim, holder, t, ord] {
        ASSERT_FALSE(model.order.empty()) << "fired an event the model lost";
        EXPECT_EQ(model.order.begin()->second, *holder)
            << "fired out of (time, FIFO) order";
        EXPECT_EQ(sim.Now(), t);
        model.order.erase({t, ord});
        model.by_id.erase(*holder);
      });
      *holder = id;
      model.order[{t, ord}] = id;
      model.by_id[id] = {t, ord};
      all_ids.push_back(id);
    } else if (r < 80) {
      EventId id = all_ids[next() % all_ids.size()];
      auto it = model.by_id.find(id);
      bool was_live = it != model.by_id.end();
      EXPECT_EQ(sim.Cancel(id), was_live);
      if (was_live) {
        model.order.erase(it->second);
        model.by_id.erase(it);
      }
    } else if (r < 92) {
      sim.Step();
    } else {
      sim.RunUntil(sim.Now() + static_cast<TimeNs>(next() % 2000));
    }
    ASSERT_EQ(sim.PendingEvents(), model.order.size()) << "after op " << op;
    ASSERT_EQ(sim.Empty(), model.order.empty());
  }
  sim.Run();
  EXPECT_TRUE(model.order.empty());
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(PeriodicTaskTest, FiresAtFixedInterval) {
  Simulator sim;
  PeriodicTask task;
  std::vector<TimeNs> fires;
  task.Start(&sim, 10, [&] { fires.push_back(sim.Now()); });
  sim.RunUntil(35);
  EXPECT_EQ(fires, (std::vector<TimeNs>{10, 20, 30}));
  task.Stop();
  sim.Run();
  EXPECT_EQ(fires.size(), 3u);
  EXPECT_TRUE(sim.Empty());
}

TEST(PeriodicTaskTest, StopFromInsideCallbackHalts) {
  Simulator sim;
  PeriodicTask task;
  int fires = 0;
  task.Start(&sim, 10, [&] {
    if (++fires == 2) {
      task.Stop();
    }
  });
  sim.Run();
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(sim.Empty());
}

// Regression: Start() from inside the task's own callback used to fork a
// second event chain — the body's Start scheduled one firing and the
// still-running old Fire scheduled another — roughly doubling the rate.
TEST(PeriodicTaskTest, RestartFromCallbackKeepsSingleChain) {
  Simulator sim;
  PeriodicTask task;
  int fires = 0;
  task.Start(&sim, 10, [&] {
    ++fires;
    if (fires == 1) {
      task.Start(&sim, 10, [&] { ++fires; });
    }
  });
  sim.RunUntil(100);
  // One firing per interval: t = 10 (restart) then 20..100 on the new chain.
  EXPECT_EQ(fires, 10);
}

// Regression: the forked chain was also uncancellable — Stop() cancelled only
// the event id the new chain last wrote, so the orphan kept firing forever.
TEST(PeriodicTaskTest, RestartFromCallbackRemainsCancellable) {
  Simulator sim;
  PeriodicTask task;
  int fires = 0;
  task.Start(&sim, 10, [&] {
    ++fires;
    task.Start(&sim, 7, [&] { ++fires; });
  });
  sim.RunUntil(30);  // t = 10 restarts; the 7ns chain fires at 17 and 24
  EXPECT_EQ(fires, 3);
  task.Stop();
  sim.Run();
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(sim.Empty()) << "orphan chain left an uncancellable event";
}

TEST(PeriodicTaskTest, RestartReplacesIntervalAndCallback) {
  Simulator sim;
  PeriodicTask task;
  int a = 0;
  int b = 0;
  task.Start(&sim, 10, [&] { ++a; });
  sim.RunUntil(25);  // fires at 10, 20
  task.Start(&sim, 5, [&] { ++b; });
  sim.RunUntil(40);  // fires at 30, 35, 40
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 3);
}

// Property: an arbitrary interleaving of schedules/cancels never fires events
// out of time order.
TEST(SimulatorTest, PropertyMonotonicFiringTimes) {
  Simulator sim;
  std::vector<TimeNs> times;
  uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    TimeNs t = static_cast<TimeNs>(next() % 10000);
    ids.push_back(sim.ScheduleAt(t, [&times, &sim] { times.push_back(sim.Now()); }));
    if (i % 3 == 0 && !ids.empty()) {
      sim.Cancel(ids[next() % ids.size()]);
    }
  }
  sim.Run();
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

}  // namespace
}  // namespace deepserve::sim
