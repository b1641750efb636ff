// Partitioned-engine contract tests: conservative window synchronization,
// cross-partition mailboxes, backpressure, and schedule determinism across
// host worker counts. Everything here runs the SAME windowed algorithm at
// workers = 1 and workers > 1, so traces must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "simcore/engine.hpp"

namespace pm2::sim {
namespace {

constexpr Time kLookahead = 100;

// Per-partition event trace. Each entry is appended by the partition that
// executes the event, so no cross-thread sharing happens even at workers>1.
struct Trace {
  std::vector<std::vector<std::uint64_t>> per_part;

  explicit Trace(int parts) : per_part(static_cast<std::size_t>(parts)) {}

  void record(int part, Time when, std::uint64_t tag) {
    per_part[static_cast<std::size_t>(part)].push_back(
        (static_cast<std::uint64_t>(when) << 16) | tag);
  }
};

TEST(ParallelEngine, ConfigureValidation) {
  {
    Engine e;
    EXPECT_THROW(e.configure_partitions(0, kLookahead), std::invalid_argument);
  }
  {
    Engine e;
    EXPECT_THROW(e.configure_partitions(2, 0), std::invalid_argument);
  }
  {
    Engine e;
    e.configure_partitions(2, kLookahead);
    // Repartitioning a partitioned engine is refused.
    EXPECT_THROW(e.configure_partitions(3, kLookahead), std::logic_error);
  }
  {
    Engine e;
    e.schedule_at(5, [] {});
    // Too late: an event is already scheduled.
    EXPECT_THROW(e.configure_partitions(2, kLookahead), std::logic_error);
  }
  {
    // n == 1 stays the reference engine and is allowed any time pre-events.
    Engine e;
    e.configure_partitions(1, 0);
    EXPECT_EQ(e.num_partitions(), 1);
  }
}

TEST(ParallelEngine, CrossEventAtExactHorizonLandsInNextWindow) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  Trace trace(2);

  // Window 1: T_min = 0, horizon = 100 (exclusive). The cross event is
  // posted at exactly t = 100, so it must NOT run inside window 1 -- it is
  // delivered at the barrier and becomes window 2's T_min.
  e.schedule_at(0, [&] {
    trace.record(0, e.now(), 1);
    e.schedule_cross(1, e.now() + kLookahead, [&] {
      trace.record(1, e.now(), 2);
    });
  });
  e.run();

  EXPECT_EQ(e.windows_executed(), 2u);
  EXPECT_EQ(e.cross_events(), 1u);
  EXPECT_EQ(e.partition_events_executed(0), 1u);
  EXPECT_EQ(e.partition_events_executed(1), 1u);
  ASSERT_EQ(trace.per_part[1].size(), 1u);
  EXPECT_EQ(trace.per_part[1][0], (100u << 16) | 2u);
}

TEST(ParallelEngine, CrossEventsMergeInCanonicalOrder) {
  // Two partitions send to partition 2 at the same timestamp; the drain
  // must order them (time, src, seq) regardless of mailbox gather order.
  Engine e;
  e.configure_partitions(3, kLookahead);
  std::vector<int> order;
  {
    // Post from partition 1 first so FIFO gather order (src 1 before src 0)
    // would be wrong; the canonical sort has to fix it.
    Engine::PartitionScope scope(e, 1);
    e.schedule_at(0, [&] {
      e.schedule_cross(2, kLookahead, [&] { order.push_back(10); });
      e.schedule_cross(2, kLookahead, [&] { order.push_back(11); });
    });
  }
  {
    Engine::PartitionScope scope(e, 0);
    e.schedule_at(0, [&] {
      e.schedule_cross(2, kLookahead, [&] { order.push_back(0); });
    });
  }
  e.run();
  // src 0 before src 1; within src 1, send order (seq).
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 10);
  EXPECT_EQ(order[2], 11);
}

TEST(ParallelEngine, MailboxBackpressureAbortsWindowDeterministically) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.set_mailbox_capacity(2);
  int delivered = 0;
  bool late_local_ran_in_first_window = true;

  e.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      e.schedule_cross(1, kLookahead + i, [&] { ++delivered; });
    }
  });
  // Would run inside window 1 (t = 50 < horizon 100) -- but the overflow
  // above aborts the sender's window first, deferring it.
  e.schedule_at(50, [&] {
    late_local_ran_in_first_window = (e.windows_executed() == 1);
  });
  e.run();

  EXPECT_EQ(e.mailbox_overflows(), 1u);
  EXPECT_EQ(delivered, 3);  // backpressure delays, never drops
  EXPECT_FALSE(late_local_ran_in_first_window);
  // Window 1 (aborted early) + window 2 (deferred local + the 3 deliveries).
  EXPECT_EQ(e.windows_executed(), 2u);
}

TEST(ParallelEngine, SameSourceCrossDegradesToLocalSchedule) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  bool ran = false;
  e.schedule_at(0, [&] {
    // dst == src: plain local event, exempt from the lookahead contract.
    e.schedule_cross(0, e.now() + 1, [&] { ran = true; });
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.cross_events(), 0u);
}

TEST(ParallelEngine, RunUntilStopsEveryPartitionAtDeadline) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  int ran = 0;
  e.schedule_at(10, [&] { ++ran; });
  {
    Engine::PartitionScope scope(e, 1);
    e.schedule_at(500, [&] { ++ran; });
  }
  e.run_until(200);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.partition_now(0), 200);
  EXPECT_EQ(e.partition_now(1), 200);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(ParallelEngine, RunJoinsPartitionClocks) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.schedule_at(10, [] {});
  {
    Engine::PartitionScope scope(e, 1);
    e.schedule_at(7500, [] {});
  }
  e.run();
  EXPECT_EQ(e.partition_now(0), 7500);
  EXPECT_EQ(e.partition_now(1), 7500);
  EXPECT_EQ(e.now(), 7500);
}

TEST(ParallelEngine, StopIsWindowGranular) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  bool far_ran = false;
  e.schedule_at(0, [&] { e.stop(); });
  {
    Engine::PartitionScope scope(e, 1);
    // Beyond window 1's horizon: must never run once stop() lands.
    e.schedule_at(1000, [&] { far_ran = true; });
  }
  e.run();
  EXPECT_TRUE(e.stopped());
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(e.pending_events(), 1u);
}

TEST(ParallelEngine, TryAdvanceStaysBelowTheHorizon) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(kLookahead - 1));  // the horizon is exclusive
    EXPECT_FALSE(e.try_advance(1));
    EXPECT_EQ(e.now(), kLookahead - 1);
  });
  e.run();
  EXPECT_EQ(e.windows_executed(), 1u);
}

TEST(ParallelEngine, TryAdvanceStaysWithinRunUntilDeadline) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(50));
    EXPECT_FALSE(e.try_advance(1));
  });
  e.run_until(50);
  EXPECT_EQ(e.partition_now(0), 50);
  EXPECT_EQ(e.partition_now(1), 50);
}

TEST(ParallelEngine, TryAdvanceRefusesAfterBackpressureAbort) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.set_mailbox_capacity(1);
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(10));
    e.schedule_cross(1, e.now() + kLookahead, [] {});  // fills the mailbox
    EXPECT_FALSE(e.try_advance(10));  // the window ends after this event
    EXPECT_EQ(e.now(), 10);
  });
  e.run();
  EXPECT_EQ(e.mailbox_overflows(), 1u);
}

TEST(ParallelEngine, TryAdvanceIgnoresStopInsideAWindow) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  e.schedule_at(0, [&] {
    e.stop();
    // A window runs on to its barrier whatever the flag reads, so the
    // answer must not depend on when another worker calls stop().
    EXPECT_TRUE(e.try_advance(10));
  });
  e.run();
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.partition_now(0), 10);
}

struct RingRun {
  Trace trace;
  std::vector<std::uint64_t> executed;  ///< events per partition
};

/// Tag bit marking a trace record written after a successful try_advance.
constexpr std::uint64_t kAdvanced = 0x8000;

// Build one fixed communication pattern: each partition runs a chain of
// events that alternates local work with cross sends to the next partition.
// With @p advance, every event first tries to move its clock in place.
// Returns the full execution trace and per-partition event counts.
RingRun run_ring(int workers, bool advance = false) {
  constexpr int kParts = 4;
  constexpr int kHops = 64;
  Engine e;
  e.configure_partitions(kParts, kLookahead);
  e.set_workers(workers);
  Trace trace(kParts);

  // Recursive driver: one local follow-up plus one cross hop per event,
  // with timestamps chosen so windows regularly contain events from
  // several partitions. The std::function outlives run() (same scope) and
  // is only read concurrently, never mutated.
  std::function<void(int, std::uint64_t)> hop = [&](int remaining,
                                                    std::uint64_t tag) {
    const int here = e.current_partition();
    if (advance && e.try_advance(1 + static_cast<Time>(tag % 13))) {
      trace.record(here, e.now(), tag | kAdvanced);
    }
    trace.record(here, e.now(), tag);
    if (remaining == 0) return;
    e.schedule_after(7 + (tag % 5),
                     [&, remaining, tag] { hop(remaining - 1, tag + 1); });
    e.schedule_cross(
        (here + 1) % kParts, e.now() + kLookahead + (tag % 3),
        [&, remaining, tag] { hop(remaining / 2, tag + 1000); });
  };

  for (int p = 0; p < kParts; ++p) {
    Engine::PartitionScope scope(e, p);
    e.schedule_at(p, [&, p] { hop(kHops, static_cast<std::uint64_t>(p)); });
  }
  e.run();
  RingRun out{std::move(trace), {}};
  for (int p = 0; p < kParts; ++p) {
    out.executed.push_back(e.partition_events_executed(p));
  }
  return out;
}

TEST(ParallelEngine, TraceIsIdenticalAcrossWorkerCounts) {
  const Trace w1 = run_ring(1).trace;
  const Trace w2 = run_ring(2).trace;
  const Trace w4 = run_ring(4).trace;
  for (std::size_t p = 0; p < w1.per_part.size(); ++p) {
    EXPECT_EQ(w1.per_part[p], w2.per_part[p]) << "partition " << p;
    EXPECT_EQ(w1.per_part[p], w4.per_part[p]) << "partition " << p;
    EXPECT_FALSE(w1.per_part[p].empty()) << "partition " << p;
  }
}

TEST(ParallelEngine, TryAdvanceIsIdenticalAcrossWorkerCounts) {
  const RingRun w1 = run_ring(1, /*advance=*/true);
  const RingRun w2 = run_ring(2, /*advance=*/true);
  const RingRun w4 = run_ring(4, /*advance=*/true);
  EXPECT_EQ(w1.executed, w2.executed);
  EXPECT_EQ(w1.executed, w4.executed);
  for (std::size_t p = 0; p < w1.trace.per_part.size(); ++p) {
    EXPECT_EQ(w1.trace.per_part[p], w2.trace.per_part[p]) << "partition " << p;
    EXPECT_EQ(w1.trace.per_part[p], w4.trace.per_part[p]) << "partition " << p;
    // Some events advanced in place and some were refused.
    const auto& recs = w1.trace.per_part[p];
    const auto advanced = std::count_if(
        recs.begin(), recs.end(),
        [](std::uint64_t r) { return (r & kAdvanced) != 0; });
    EXPECT_GT(advanced, 0) << "partition " << p;
    EXPECT_LT(2 * advanced, static_cast<std::ptrdiff_t>(recs.size()))
        << "partition " << p;
  }
}

}  // namespace
}  // namespace pm2::sim
