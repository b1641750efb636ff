#include "simcore/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pm2::sim {
namespace {

TEST(Engine, ClockStartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, RunAdvancesClockToLastEvent) {
  Engine e;
  e.schedule_at(100, [] {});
  e.schedule_at(250, [] {});
  e.run();
  EXPECT_EQ(e.now(), 250);
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  Time seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(100, [&] {
    EXPECT_THROW(e.schedule_at(50, [] {}), std::logic_error);
  });
  e.run();
}

TEST(Engine, EventsCanCascade) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) e.schedule_after(10, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(e.now(), 90);
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] {
    ++fired;
    e.stop();
  });
  e.schedule_at(20, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();  // resume
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<Time> fired;
  for (Time t : {10, 20, 30, 40}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  e.run_until(25);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(e.now(), 25);
  e.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 40}));
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, TryAdvanceMovesClockWithoutAnEvent) {
  Engine e;
  Time after = -1, seen = -1;
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(10));
    after = e.now();
  });
  e.schedule_at(11, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(after, 10);
  EXPECT_EQ(seen, 11);
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(Engine, TryAdvanceRefusesOnATie) {
  Engine e;
  e.schedule_at(0, [&] {
    EXPECT_FALSE(e.try_advance(10));  // the event at 10 runs first
    EXPECT_EQ(e.now(), 0);
  });
  e.schedule_at(10, [] {});
  e.run();
}

TEST(Engine, TryAdvanceRefusesPastAnEarlierEvent) {
  Engine e;
  e.schedule_at(0, [&] {
    EXPECT_FALSE(e.try_advance(10));
    EXPECT_EQ(e.now(), 0);
  });
  e.schedule_at(5, [] {});
  e.run();
}

TEST(Engine, TryAdvanceRefusesPastACancelledEntry) {
  Engine e;
  EventHandle h = e.schedule_at(5, [] {});
  e.schedule_at(0, [&] {
    e.cancel(h);
    EXPECT_FALSE(e.try_advance(10));  // refusing is always safe
  });
  e.run();
}

TEST(Engine, TryAdvanceStaysWithinRunUntilDeadline) {
  Engine e;
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(20));  // an event at the deadline runs
    EXPECT_FALSE(e.try_advance(1));
    EXPECT_EQ(e.now(), 20);
  });
  e.run_until(20);
  EXPECT_EQ(e.now(), 20);
}

TEST(Engine, TryAdvanceRefusesWithStopPending) {
  Engine e;
  e.schedule_at(0, [&] {
    e.stop();
    EXPECT_FALSE(e.try_advance(10));
  });
  e.run();
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, TryAdvanceRefusesOutsideARun) {
  Engine e;
  EXPECT_FALSE(e.try_advance(10));
  e.schedule_at(0, [] {});
  e.run();
  EXPECT_FALSE(e.try_advance(10));
  EXPECT_EQ(e.now(), 0);
}

/// An event type take_next() can recognize.
struct Marked {
  int* ran;
  void operator()() const { ++*ran; }
};

TEST(Engine, TakeNextTakesTheNextEventOfItsType) {
  Engine e;
  int ran = 0;
  Marked got{nullptr};
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.take_next(got));  // the cancelled entry is skipped
    EXPECT_EQ(e.now(), 10);
    EXPECT_FALSE(e.take_next(got));  // a lambda is next
    EXPECT_EQ(e.now(), 10);
  });
  EventHandle dead = e.schedule_at(5, Marked{&ran});
  e.cancel(dead);
  e.schedule_at(10, Marked{&ran});
  e.schedule_at(20, [] {});
  e.run();
  EXPECT_EQ(ran, 0);  // taken, not run
  EXPECT_EQ(got.ran, &ran);
  EXPECT_EQ(e.events_executed(), 3u);  // the taken event counts
}

TEST(Engine, TakeNextStaysWithinRunUntilDeadline) {
  Engine e;
  int ran = 0;
  Marked got{nullptr};
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.take_next(got));  // an event at the deadline runs
    EXPECT_FALSE(e.take_next(got));
  });
  e.schedule_at(20, Marked{&ran});
  e.schedule_at(21, Marked{&ran});
  e.run_until(20);
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, TakeNextRefusesWithStopPending) {
  Engine e;
  int ran = 0;
  Marked got{nullptr};
  e.schedule_at(0, [&] {
    e.stop();
    EXPECT_FALSE(e.take_next(got));
  });
  e.schedule_at(10, Marked{&ran});
  e.run();
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, TakeNextRefusesOutsideARun) {
  Engine e;
  int ran = 0;
  Marked got{nullptr};
  e.schedule_at(0, Marked{&ran});
  EXPECT_FALSE(e.take_next(got));
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(Engine, CancelledEventDoesNotRun) {
  Engine e;
  int fired = 0;
  auto h = e.schedule_at(10, [&] { ++fired; });
  e.cancel(h);
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 0);  // nothing executed, clock untouched
}

TEST(Engine, DeterministicOrderAtSameTimestamp) {
  std::vector<int> a, b;
  for (auto* out : {&a, &b}) {
    Engine e;
    for (int i = 0; i < 8; ++i) {
      e.schedule_at(7, [out, i] { out->push_back(i); });
    }
    e.run();
  }
  EXPECT_EQ(a, b);
}

TEST(TimeFormat, HumanReadable) {
  EXPECT_EQ(format_time(nanoseconds(70)), "70 ns");
  EXPECT_EQ(format_time(microseconds(5)), "5.000 us");
  EXPECT_EQ(format_time(milliseconds(2)), "2.000 ms");
  EXPECT_EQ(format_time(seconds(3)), "3.000 s");
}

TEST(TimeConversions, Roundtrip) {
  EXPECT_DOUBLE_EQ(to_us(microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2)), 2.0);
  EXPECT_EQ(microseconds(1), nanoseconds(1000));
}

}  // namespace
}  // namespace pm2::sim
