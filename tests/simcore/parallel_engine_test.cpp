// Partitioned-engine contract tests: conservative window synchronization,
// cross-partition mailboxes, backpressure, and schedule determinism across
// host worker counts. Everything here runs the SAME windowed algorithm at
// workers = 1 and workers > 1, so traces must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
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
  constexpr int kSent = static_cast<int>(Engine::kMailboxCapacity) + 1;
  int delivered = 0;
  bool late_local_ran_in_first_window = true;

  e.schedule_at(0, [&] {
    // One more than the mailbox holds, all due inside the second window.
    for (int i = 0; i < kSent; ++i) {
      e.schedule_cross(1, kLookahead + i % 3, [&] { ++delivered; });
    }
  });
  // Would run inside window 1 (t = 50 < horizon 100) -- but the overflow
  // above aborts the sender's window first, deferring it.
  e.schedule_at(50, [&] {
    late_local_ran_in_first_window = (e.windows_executed() == 1);
  });
  e.run();

  EXPECT_EQ(e.mailbox_overflows(), 1u);
  EXPECT_EQ(delivered, kSent);  // backpressure delays, never drops
  EXPECT_FALSE(late_local_ran_in_first_window);
  // Window 1 (aborted early) + window 2 (deferred local + every delivery).
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

// What a run stopped from its first window leaves behind.
struct StopOutcome {
  bool stopped;
  std::size_t pending;
  std::vector<std::uint64_t> executed;  ///< events per partition
  int far_ran;
};

StopOutcome run_stopped(int workers) {
  constexpr int kParts = 4;
  Engine e;
  e.configure_partitions(kParts, kLookahead);
  e.set_workers(workers);
  std::atomic<int> far_ran{0};
  for (int p = 0; p < kParts; ++p) {
    Engine::PartitionScope scope(e, p);
    if (p == 0) e.schedule_at(0, [&] { e.stop(); });
    e.schedule_at(10 + p, [] {});  // inside the first window
    e.schedule_at(1000 + p, [&] { far_ran.fetch_add(1); });
  }
  e.run();
  StopOutcome out{e.stopped(), e.pending_events(), {}, far_ran.load()};
  for (int p = 0; p < kParts; ++p) {
    out.executed.push_back(e.partition_events_executed(p));
  }
  return out;
}

TEST(ParallelEngine, StopFromAWindowEndsEveryWorker) {
  // A worker that read the live stop flag after a barrier could leave the
  // loop while another still ran the window that called stop(); that one
  // then waited at the next barrier forever. Whether a worker is preempted
  // at that point is up to the host, so repeat the run.
  const StopOutcome ref = run_stopped(1);
  EXPECT_TRUE(ref.stopped);
  EXPECT_EQ(ref.far_ran, 0);
  EXPECT_EQ(ref.pending, 4u);
  EXPECT_EQ(ref.executed, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  for (const int workers : {2, 4}) {
    for (int i = 0; i < 500; ++i) {
      const StopOutcome got = run_stopped(workers);
      ASSERT_TRUE(got.stopped) << "workers " << workers << " run " << i;
      ASSERT_EQ(got.pending, ref.pending) << "workers " << workers;
      ASSERT_EQ(got.executed, ref.executed) << "workers " << workers;
      ASSERT_EQ(got.far_ran, 0) << "workers " << workers;
    }
  }
}

// What a run whose events threw leaves behind.
struct ThrowOutcome {
  std::string what;
  std::size_t pending;
  std::vector<std::uint64_t> executed;  ///< events per partition
};

ThrowOutcome run_throwing(int workers) {
  constexpr int kParts = 4;
  Engine e;
  e.configure_partitions(kParts, kLookahead);
  e.set_workers(workers);
  for (int p = 0; p < kParts; ++p) {
    Engine::PartitionScope scope(e, p);
    e.schedule_at(20 + p, [] {});  // inside the first window
    e.schedule_at(1000, [] {});    // beyond it
  }
  {
    // Partition 1 throws earlier in virtual time, but partition 0 has the
    // lower index, so its exception is the one the caller sees.
    Engine::PartitionScope scope(e, 0);
    e.schedule_at(50, [] { throw std::runtime_error("partition 0"); });
    e.schedule_at(60, [] {});  // after the throw: the window ended there
  }
  {
    Engine::PartitionScope scope(e, 1);
    e.schedule_at(5, [] { throw std::runtime_error("partition 1"); });
  }
  ThrowOutcome out;
  try {
    e.run();
  } catch (const std::runtime_error& ex) {
    out.what = ex.what();
  }
  out.pending = e.pending_events();
  for (int p = 0; p < kParts; ++p) {
    out.executed.push_back(e.partition_events_executed(p));
  }
  return out;
}

TEST(ParallelEngine, EventExceptionReachesTheCallerAtEveryWorkerCount) {
  const ThrowOutcome w1 = run_throwing(1);
  EXPECT_EQ(w1.what, "partition 0");
  // Partitions 2 and 3 finished the window; 0 and 1 ended it at the throw.
  EXPECT_EQ(w1.executed, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(w1.pending, 6u);
  for (const int workers : {2, 4}) {
    const ThrowOutcome got = run_throwing(workers);
    EXPECT_EQ(got.what, w1.what) << "workers " << workers;
    EXPECT_EQ(got.executed, w1.executed) << "workers " << workers;
    EXPECT_EQ(got.pending, w1.pending) << "workers " << workers;
  }
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
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.try_advance(10));
    for (std::size_t i = 1; i < Engine::kMailboxCapacity; ++i) {
      e.schedule_cross(1, e.now() + kLookahead, [] {});
    }
    EXPECT_TRUE(e.try_advance(0));  // one slot left: no abort yet
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

/// An event type take_next() can recognize.
struct Marked {
  void operator()() const {}
};

// A window's events end below its horizon, T_min + lookahead; take_next()
// must not reach past it, nor past a backpressure abort, and it ignores
// stop() inside a window as the window loop does.
TEST(ParallelEngine, TakeNextStaysBelowTheHorizon) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  Marked got;
  e.schedule_at(0, [&] {
    EXPECT_TRUE(e.take_next(got));
    EXPECT_EQ(e.now(), kLookahead - 1);
    EXPECT_FALSE(e.take_next(got));  // at the horizon: the next window's
  });
  e.schedule_at(kLookahead - 1, Marked{});
  e.schedule_at(kLookahead, Marked{});
  e.run();
  EXPECT_EQ(e.windows_executed(), 2u);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(ParallelEngine, TakeNextRefusesAfterBackpressureAbort) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  Marked got;
  e.schedule_at(0, [&] {
    for (std::size_t i = 0; i < Engine::kMailboxCapacity; ++i) {
      e.schedule_cross(1, e.now() + kLookahead, [] {});
    }
    EXPECT_FALSE(e.take_next(got));  // the window ends after this event
    EXPECT_EQ(e.now(), 0);
  });
  e.schedule_at(10, Marked{});
  e.run();
  EXPECT_EQ(e.mailbox_overflows(), 1u);
}

TEST(ParallelEngine, TakeNextIgnoresStopInsideAWindow) {
  Engine e;
  e.configure_partitions(2, kLookahead);
  Marked got;
  e.schedule_at(0, [&] {
    e.stop();
    EXPECT_TRUE(e.take_next(got));
  });
  e.schedule_at(10, Marked{});
  e.run();
  EXPECT_TRUE(e.stopped());
  EXPECT_EQ(e.partition_now(0), 10);
}

struct RingRun {
  Trace trace;
  std::vector<std::uint64_t> executed;  ///< events per partition
  std::vector<std::uint64_t> slice_events;  ///< events run after each slice
  std::size_t pending;
  std::uint64_t barrier_wait_ns;
};

/// Tag bit marking a trace record written after a successful try_advance.
constexpr std::uint64_t kAdvanced = 0x8000;

// Build one fixed communication pattern: each partition runs a chain of
// events that alternates local work with cross sends to the next partition.
// With @p advance, every event first tries to move its clock in place.
// With @p slices > 0, run_until() drives it in that many steps of
// kRingSlice instead of one run(). Returns the full execution trace and
// per-partition event counts.
constexpr Time kRingSlice = 50;  // the ring's traffic ends before 1000 ns

RingRun run_ring(int workers, bool advance = false, int slices = 0) {
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
  std::vector<std::uint64_t> slice_events;
  if (slices == 0) {
    e.run();
  } else {
    for (int k = 1; k <= slices; ++k) {
      e.run_until(k * kRingSlice);
      slice_events.push_back(e.events_executed());
    }
  }
  RingRun out{std::move(trace), {}, std::move(slice_events),
              e.pending_events(), e.barrier_wait_ns()};
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

TEST(ParallelEngine, RepeatedRunUntilIsIdenticalAcrossWorkerCounts) {
  // Every run_until() starts and joins its workers and leaves the clocks at
  // its deadline; the slices must not make the schedule depend on them.
  constexpr int kSlices = 20;
  const RingRun w1 = run_ring(1, /*advance=*/true, kSlices);
  const RingRun w2 = run_ring(2, /*advance=*/true, kSlices);
  const RingRun w4 = run_ring(4, /*advance=*/true, kSlices);
  EXPECT_EQ(w1.barrier_wait_ns, 0u);  // a lone worker never waits
  EXPECT_EQ(w1.executed, w2.executed);
  EXPECT_EQ(w1.executed, w4.executed);
  for (std::size_t p = 0; p < w1.trace.per_part.size(); ++p) {
    EXPECT_EQ(w1.trace.per_part[p], w2.trace.per_part[p]) << "partition " << p;
    EXPECT_EQ(w1.trace.per_part[p], w4.trace.per_part[p]) << "partition " << p;
  }
  EXPECT_EQ(w1.slice_events, w2.slice_events);
  EXPECT_EQ(w1.slice_events, w4.slice_events);
  // The slices cut through the ring's traffic, and it has drained by the
  // last one.
  EXPECT_LT(w1.slice_events.front(), w1.slice_events.back());
  EXPECT_EQ(w1.pending, 0u);
}

}  // namespace
}  // namespace pm2::sim
