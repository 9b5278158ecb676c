#include "sim/engine.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace thrifty {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&](SimTime) { fired.push_back(3); });
  q.Schedule(10, [&](SimTime) { fired.push_back(1); });
  q.Schedule(20, [&](SimTime) { fired.push_back(2); });
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFifoByScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&fired, i](SimTime) { fired.push_back(i); });
  }
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(10, [&](SimTime) { fired.push_back(1); });
  EventId id = q.Schedule(20, [&](SimTime) { fired.push_back(2); });
  q.Schedule(30, [&](SimTime) { fired.push_back(3); });
  q.Cancel(id);
  EXPECT_EQ(q.LiveCount(), 2u);
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelInvalidIsNoop) {
  EventQueue q;
  q.Cancel(kInvalidEventId);
  q.Cancel(12345);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, StaleCancelsLeaveNoTombstones) {
  EventQueue q;
  std::vector<EventId> fired_ids;
  for (int i = 0; i < 4; ++i) {
    fired_ids.push_back(q.Schedule(10 * (i + 1), [](SimTime) {}));
  }
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EventId cancelled = q.Schedule(5, [](SimTime) {});
  q.Cancel(cancelled);
  EXPECT_EQ(q.LiveCount(), 0u);

  // Four new events reuse the four freed slots. Every fired or cancelled id
  // now names a slot that holds a later event; cancelling it, however
  // often, must leave that event alone.
  std::vector<int> fired;
  for (int i = 0; i < 4; ++i) {
    q.Schedule(100 + i, [&fired, i](SimTime) { fired.push_back(i); });
  }
  EXPECT_EQ(q.SlotCount(), 4u);
  for (int round = 0; round < 3; ++round) {
    for (EventId id : fired_ids) q.Cancel(id);
    q.Cancel(cancelled);
  }
  EXPECT_EQ(q.LiveCount(), 4u);
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));

  // A double cancel of a live id removes it once.
  EventId live = q.Schedule(1000, [](SimTime) {});
  EventId keeper = q.Schedule(2000, [](SimTime) {});
  q.Cancel(live);
  q.Cancel(live);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.NextTime(), 2000);
  q.Cancel(keeper);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.NextTime(), kNeverTime);
}

TEST(EventQueueTest, CancelHeavyRunsStayCompact) {
  // Schedule far-future events and cancel them long before they surface:
  // a cancel frees its slot at once, so the slot array never grows past
  // the peak number of live events.
  EventQueue q;
  q.Schedule(5'000'000, [](SimTime) {});  // one long-lived bystander
  for (int wave = 0; wave < 100; ++wave) {
    std::vector<EventId> wave_ids;
    for (int i = 0; i < 100; ++i) {
      wave_ids.push_back(q.Schedule(1'000'000 + wave * 100 + i,
                                    [](SimTime) {}));
    }
    // Cancel in an order that is neither heap nor scheduling order.
    for (int i = 0; i < 100; ++i) q.Cancel(wave_ids[(i * 37) % 100]);
    EXPECT_EQ(q.LiveCount(), 1u) << "wave " << wave;
    EXPECT_EQ(q.SlotCount(), 101u) << "wave " << wave;
  }
  EXPECT_EQ(q.NextTime(), 5'000'000);
}

TEST(EventQueueTest, CancelWavesPreserveSurvivorOrder) {
  EventQueue q;
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<EventId> doomed;
  // Survivors share times with each other and with the doomed events;
  // they must fire by (time, scheduling order) whatever was cut around
  // them in the heap.
  int tag = 0;
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 200; ++i) {
      const SimTime t = 100 + (i * 7 + wave * 3) % 50;
      if (i % 20 == wave) {
        const int my_tag = tag++;
        q.Schedule(t, [&fired, my_tag](SimTime now) {
          fired.emplace_back(now, my_tag);
        });
      } else {
        doomed.push_back(q.Schedule(t, [](SimTime) {}));
      }
    }
    for (size_t i = 0; i < doomed.size(); i += 2) q.Cancel(doomed[i]);
    for (size_t i = 1; i < doomed.size(); i += 2) q.Cancel(doomed[i]);
    doomed.clear();
  }
  EXPECT_EQ(q.LiveCount(), 50u);
  // The peak live count: the first four waves' 40 survivors plus the last
  // wave's 200 events.
  EXPECT_EQ(q.SlotCount(), 240u);
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)(t);
  }
  ASSERT_EQ(fired.size(), 50u);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_TRUE(fired[i - 1].first < fired[i].first ||
                (fired[i - 1].first == fired[i].first &&
                 fired[i - 1].second < fired[i].second))
        << "position " << i;
  }
}

TEST(EventQueueTest, ConstQueriesWorkOnConstQueue) {
  EventQueue q;
  q.Schedule(42, [](SimTime) {});
  const EventQueue& const_q = q;
  EXPECT_FALSE(const_q.Empty());
  EXPECT_EQ(const_q.NextTime(), 42);
  EXPECT_EQ(const_q.LiveCount(), 1u);
}

TEST(EventQueueTest, NextTimeReflectsHead) {
  EventQueue q;
  EXPECT_EQ(q.NextTime(), kNeverTime);
  EventId id = q.Schedule(50, [](SimTime) {});
  q.Schedule(70, [](SimTime) {});
  EXPECT_EQ(q.NextTime(), 50);
  q.Cancel(id);
  EXPECT_EQ(q.NextTime(), 70);
}

TEST(SimEngineTest, ClockAdvancesToEventTimes) {
  SimEngine engine;
  std::vector<SimTime> seen;
  engine.ScheduleAt(100, [&](SimTime t) { seen.push_back(t); });
  engine.ScheduleAt(50, [&](SimTime t) { seen.push_back(t); });
  EXPECT_EQ(engine.now(), 0);
  engine.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(engine.now(), 100);
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(SimEngineTest, ScheduleAfterIsRelative) {
  SimEngine engine;
  SimTime fired_at = -1;
  engine.ScheduleAt(10, [&](SimTime) {
    engine.ScheduleAfter(5, [&](SimTime t) { fired_at = t; });
  });
  engine.Run();
  EXPECT_EQ(fired_at, 15);
}

TEST(SimEngineTest, EventsCanScheduleMoreEvents) {
  SimEngine engine;
  int count = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++count < 10) engine.ScheduleAfter(1, chain);
  };
  engine.ScheduleAt(0, chain);
  engine.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(engine.now(), 9);
}

TEST(SimEngineTest, RunUntilStopsAtDeadline) {
  SimEngine engine;
  std::vector<SimTime> seen;
  for (SimTime t : {10, 20, 30, 40}) {
    engine.ScheduleAt(t, [&](SimTime now) { seen.push_back(now); });
  }
  engine.RunUntil(25);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(engine.now(), 25);  // clock advances to the deadline exactly
  EXPECT_EQ(engine.events_pending(), 2u);
  engine.RunUntil(100);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(engine.now(), 100);
}

TEST(SimEngineTest, RunUntilIncludesDeadlineEvents) {
  SimEngine engine;
  bool fired = false;
  engine.ScheduleAt(25, [&](SimTime) { fired = true; });
  engine.RunUntil(25);
  EXPECT_TRUE(fired);
}

TEST(SimEngineTest, CancelPreventsFiring) {
  SimEngine engine;
  bool fired = false;
  EventId id = engine.ScheduleAt(10, [&](SimTime) { fired = true; });
  engine.Cancel(id);
  engine.Run();
  EXPECT_FALSE(fired);
}

TEST(SimEngineTest, StepReturnsFalseWhenEmpty) {
  SimEngine engine;
  EXPECT_FALSE(engine.Step());
  engine.ScheduleAt(5, [](SimTime) {});
  EXPECT_TRUE(engine.Step());
  EXPECT_FALSE(engine.Step());
}

}  // namespace
}  // namespace thrifty
