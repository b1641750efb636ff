#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pm2::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next([](Time) {});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next([](Time) {});
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
  EventQueue q;
  q.schedule(50, [] {});
  auto h = q.schedule(20, [] {});
  EXPECT_EQ(q.next_time(), 20);
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(10, [&] { ++fired; });
  q.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_next([](Time) {});
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue q;
  auto h = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.schedule(10, [] {});
  q.run_next([](Time) {});
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, DefaultHandleIsInvalid) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.pending());
  EventQueue q;
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, PopSkipsCancelledEntries) {
  EventQueue q;
  auto h1 = q.schedule(10, [] {});
  int fired = 0;
  q.schedule(20, [&] { fired = 1; });
  q.cancel(h1);
  Time t = -1;
  q.run_next([&t](Time when) { t = when; });
  EXPECT_EQ(t, 20);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleAfterSlotReuse) {
  // After cancel, the slot goes back to the pool and the very next schedule
  // reuses it. The old handle must stay stale: it names a (slot, sequence)
  // pairing that no longer exists, even though the slot is occupied again.
  EventQueue q;
  auto h1 = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(h1));
  EXPECT_EQ(q.free_slots(), 1u);
  int fired = 0;
  auto h2 = q.schedule(20, [&] { ++fired; });
  EXPECT_EQ(q.free_slots(), 0u);  // the slot was reused...
  EXPECT_FALSE(h1.pending());     // ...but the stale handle sees through it
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_TRUE(h2.pending());
  Time t = -1;
  q.run_next([&t](Time when) { t = when; });
  EXPECT_EQ(t, 20);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleHandleAfterFireAndSlotReuse) {
  EventQueue q;
  auto h1 = q.schedule(10, [] {});
  q.run_next([](Time) {});
  auto h2 = q.schedule(20, [] {});  // reuses h1's slot
  EXPECT_FALSE(h1.pending());
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_TRUE(q.cancel(h2));
}

TEST(EventQueue, DeadEntriesBoundedUnderCancelChurn) {
  // Lazy cancellation must not retain unbounded tombstones: compaction
  // keeps dead_entries() <= max(kCompactFloor, live) after every op.
  EventQueue q;
  auto bound_holds = [&q] {
    return q.dead_entries() <= std::max(EventQueue::kCompactFloor, q.size());
  };
  std::vector<EventHandle> handles;
  // Far-future blockers that never reach the front: dead entries behind
  // them can only be reclaimed by compaction, not by front dropping.
  for (int i = 0; i < 8; ++i) q.schedule(1'000'000, [] {});
  for (int round = 0; round < 50; ++round) {
    handles.clear();
    for (int i = 0; i < 100; ++i) {
      handles.push_back(q.schedule(1000 + round, [] {}));
      ASSERT_TRUE(bound_holds());
    }
    for (auto& h : handles) {
      q.cancel(h);
      ASSERT_TRUE(bound_holds()) << "dead=" << q.dead_entries()
                                 << " live=" << q.size();
    }
  }
  EXPECT_EQ(q.size(), 8u);
  EXPECT_LE(q.dead_entries(), EventQueue::kCompactFloor);
}

TEST(EventQueue, ManyInterleavedSchedulesAndCancels) {
  EventQueue q;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.schedule(i % 97, [&] { ++fired; }));
  }
  for (size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
  EXPECT_EQ(q.size(), 500u);
  Time last = -1;
  while (!q.empty()) {
    q.run_next([&last](Time t) {
      EXPECT_GE(t, last);
      last = t;
    });
  }
  EXPECT_EQ(fired, 500);
}

// An event runs in its slot: its handle reads !pending() while it fires,
// an event it schedules gets another slot, and the slot is freed
// afterwards, also when the callback throws.
TEST(EventQueue, RunsInItsSlot) {
  EventQueue q;
  EventHandle self;
  EventHandle inner;
  bool pending_while_firing = true;
  self = q.schedule(10, [&] {
    pending_while_firing = self.pending();
    EXPECT_FALSE(q.cancel(self));
    inner = q.schedule(20, [] { throw 7; });
  });
  q.run_next([](Time) {});
  EXPECT_FALSE(pending_while_firing);
  EXPECT_TRUE(inner.pending());
  EXPECT_EQ(q.free_slots(), 1u);  // the fired slot, inner holds another
  EXPECT_THROW(q.run_next([](Time) {}), int);
  EXPECT_EQ(q.free_slots(), 2u);
  EXPECT_TRUE(q.empty());
}

struct Tagged {
  int id;
  void operator()() const {}
};

// take_next_if removes the earliest live event only when it holds the
// asked-for type and is due by the limit; the callable is not run.
TEST(EventQueue, TakeNextIfTakesOnlyADueEventOfItsType) {
  EventQueue q;
  int fired = 0;
  auto dead = q.schedule(5, Tagged{0});
  q.cancel(dead);
  q.schedule(10, Tagged{1});
  q.schedule(20, [&fired] { ++fired; });
  q.schedule(30, Tagged{3});
  Time when = -1;
  Tagged out{-1};
  EXPECT_FALSE(q.take_next_if(9, when, out));  // not due
  EXPECT_TRUE(q.take_next_if(10, when, out));
  EXPECT_EQ(when, 10);
  EXPECT_EQ(out.id, 1);
  EXPECT_FALSE(q.take_next_if(100, when, out));  // a lambda is next
  EXPECT_EQ(q.size(), 2u);
  q.run_next([](Time) {});
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.take_next_if(30, when, out));
  EXPECT_EQ(out.id, 3);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.take_next_if(100, when, out));
}

}  // namespace
}  // namespace pm2::sim
