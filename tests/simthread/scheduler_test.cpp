#include "simthread/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simmachine/machine.hpp"

namespace pm2::mth {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  mach::Machine machine_{engine_, "node0", mach::CacheTopology::quad_core(),
                         mach::CostBook::xeon_quad()};
  Scheduler sched_{machine_};
};

TEST_F(SchedulerTest, SingleThreadRuns) {
  int ran = 0;
  sched_.spawn([&] { ran = 1; });
  engine_.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched_.live_threads(), 0);
}

TEST_F(SchedulerTest, WorkAdvancesVirtualTime) {
  sim::Time end = -1;
  sched_.spawn([&] {
    sched_.work(sim::microseconds(10));
    end = engine_.now();
  });
  engine_.run();
  // First dispatch pays one context switch before the work itself.
  EXPECT_EQ(end, sim::microseconds(10) + machine_.costs().context_switch);
}

TEST_F(SchedulerTest, ThreadCpuTimeAccounted) {
  Thread* t = sched_.spawn([&] { sched_.work(sim::microseconds(3)); });
  engine_.run();
  EXPECT_EQ(t->cpu_time(), sim::microseconds(3));
  EXPECT_TRUE(t->finished());
}

TEST_F(SchedulerTest, BindingRespected) {
  std::vector<int> cores;
  for (int c : {2, 0, 3}) {
    ThreadAttrs attrs;
    attrs.bind_core = c;
    sched_.spawn([&cores, this] { cores.push_back(sched_.current_thread()->core()); },
                 attrs);
  }
  engine_.run();
  EXPECT_EQ(cores, (std::vector<int>{2, 0, 3}));
}

TEST_F(SchedulerTest, UnboundThreadsSpreadAcrossCores) {
  std::vector<int> cores;
  for (int i = 0; i < 4; ++i) {
    sched_.spawn([&cores, this] {
      cores.push_back(sched_.current_thread()->core());
      sched_.work(sim::microseconds(100));
    });
  }
  engine_.run();
  std::sort(cores.begin(), cores.end());
  EXPECT_EQ(cores, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(SchedulerTest, TwoThreadsOnOneCoreTimeshare) {
  ThreadAttrs a;
  a.bind_core = 0;
  sim::Time end1 = 0, end2 = 0;
  sched_.spawn([&] {
    sched_.work(sim::microseconds(300));
    end1 = engine_.now();
  }, a);
  sched_.spawn([&] {
    sched_.work(sim::microseconds(300));
    end2 = engine_.now();
  }, a);
  engine_.run();
  // Round-robin at 100 us slices: both finish within one slice of each
  // other, in the 600 us region, not serialized 300-then-600.
  EXPECT_GT(end1, sim::microseconds(450));
  EXPECT_GT(end2, sim::microseconds(450));
  EXPECT_GT(sched_.context_switches(), 4u);
}

TEST_F(SchedulerTest, SleepWakesAtRightTime) {
  sim::Time woke = -1;
  sched_.spawn([&] {
    sched_.sleep_for(sim::microseconds(50));
    woke = engine_.now();
  });
  engine_.run();
  // sleep 50 us, then a context switch to resume.
  EXPECT_GE(woke, sim::microseconds(50));
  EXPECT_LE(woke, sim::microseconds(51));
}

TEST_F(SchedulerTest, EarlyWakeDoesNotShortenNextSleep) {
  Thread* sleeper = nullptr;
  sim::Time second_sleep = -1;
  sleeper = sched_.spawn([&] {
    sched_.sleep_for(sim::microseconds(100));  // cut short at ~10 us
    const sim::Time start = engine_.now();
    sched_.sleep_for(sim::microseconds(1000));
    second_sleep = engine_.now() - start;
  });
  sched_.spawn([&] {
    sched_.work(sim::microseconds(10));
    sched_.wake(sleeper);
  });
  engine_.run();
  // The first sleep's timer, due at 100 us, must not end the second sleep.
  EXPECT_GE(second_sleep, sim::microseconds(1000));
  EXPECT_LE(second_sleep, sim::microseconds(1001));
}

TEST_F(SchedulerTest, YieldRotatesRunqueue) {
  ThreadAttrs a;
  a.bind_core = 1;
  std::vector<int> order;
  sched_.spawn([&] {
    order.push_back(1);
    sched_.yield();
    order.push_back(3);
  }, a);
  sched_.spawn([&] {
    order.push_back(2);
    sched_.yield();
    order.push_back(4);
  }, a);
  engine_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_F(SchedulerTest, JoinWaitsForTarget) {
  bool child_done = false;
  sim::Time join_time = -1;
  sched_.spawn([&] {
    Thread* child = sched_.spawn([&] {
      sched_.work(sim::microseconds(20));
      child_done = true;
    });
    sched_.join(child);
    EXPECT_TRUE(child_done);
    join_time = engine_.now();
  });
  engine_.run();
  EXPECT_GE(join_time, sim::microseconds(20));
}

TEST_F(SchedulerTest, JoinFinishedThreadReturnsImmediately) {
  sched_.spawn([&] {
    Thread* child = sched_.spawn([] {});
    sched_.sleep_for(sim::microseconds(100));
    EXPECT_TRUE(child->finished());
    const sim::Time before = engine_.now();
    sched_.join(child);
    EXPECT_EQ(engine_.now(), before);
  });
  engine_.run();
}

TEST_F(SchedulerTest, BlockAndWake) {
  Thread* sleeper = nullptr;
  bool woke = false;
  sleeper = sched_.spawn([&] {
    sched_.block_current();
    woke = true;
  });
  sched_.spawn([&] {
    sched_.work(sim::microseconds(5));
    sched_.wake(sleeper);
  });
  engine_.run();
  EXPECT_TRUE(woke);
}

TEST_F(SchedulerTest, WakePermitPreventsLostWakeup) {
  // Wake a thread that is Running (mid-charge) and about to block: the
  // permit must make the subsequent block_current() a no-op.
  Thread* t = nullptr;
  bool done = false;
  t = sched_.spawn([&] {
    sched_.work(sim::microseconds(10));  // waker fires mid-work
    sched_.block_current();
    done = true;
  });
  sched_.spawn([&] {
    sched_.work(sim::microseconds(3));
    sched_.wake(t);  // t is Running on another core right now
  });
  engine_.run();
  EXPECT_TRUE(done);
}

TEST_F(SchedulerTest, SpinParkUnparkAccountsBusyTime) {
  Thread* spinner = nullptr;
  sim::Time resumed_at = -1;
  spinner = sched_.spawn([&] {
    sched_.spin_park();
    resumed_at = engine_.now();
  });
  sched_.spawn([&] {
    sched_.work(sim::microseconds(7));
    sched_.spin_unpark(spinner, 20);
  });
  engine_.run();
  EXPECT_GT(resumed_at, sim::microseconds(7));
  // The spinner's whole park time counts as CPU (it was busy-waiting).
  EXPECT_GT(spinner->cpu_time(), sim::microseconds(6));
}

TEST_F(SchedulerTest, SpinUnparkIsIdempotent) {
  Thread* spinner = nullptr;
  int resumes = 0;
  spinner = sched_.spawn([&] {
    sched_.spin_park();
    ++resumes;
  });
  sched_.spawn([&] {
    sched_.work(sim::microseconds(1));
    sched_.spin_unpark(spinner, 0);
    sched_.spin_unpark(spinner, 0);
  });
  engine_.run();
  EXPECT_EQ(resumes, 1);
}

// A charge that no event can interleave with advances the clock in place:
// a lone fiber's 10 000 charges execute no event of their own.
TEST_F(SchedulerTest, LoneFiberChargesExecuteNoEvents) {
  sched_.spawn([&] {
    for (int i = 0; i < 10000; ++i) sched_.charge_current(10);
  });
  engine_.run();
  EXPECT_EQ(engine_.now(), machine_.costs().context_switch + 100000);
  // The dispatch, the switched-in start and the dispatch after exit. A
  // resume event per charge would make it 10 003.
  EXPECT_EQ(engine_.events_executed(), 3u);
}

// A charge ending on another core's resume instant yields to it, because
// the earlier-scheduled event runs first. Fibers 0 and 2 charge 35 ns and
// fiber 1 70 ns, so most charges end on a tie; fiber 1's last two end
// alone.
TEST_F(SchedulerTest, ChargeTiesKeepEventOrder) {
  std::vector<std::pair<sim::Time, int>> log;
  for (int id = 0; id < 3; ++id) {
    ThreadAttrs a;
    a.bind_core = id;
    sched_.spawn([&log, this, id] {
      for (int k = 0; k < 6; ++k) {
        sched_.charge_current(id == 1 ? 70 : 35);
        log.emplace_back(engine_.now(), id);
      }
    }, a);
  }
  engine_.run();
  const std::vector<std::pair<sim::Time, int>> expected{
      {410, 0}, {410, 2}, {445, 1}, {445, 0}, {445, 2}, {480, 0},
      {480, 2}, {515, 1}, {515, 0}, {515, 2}, {550, 0}, {550, 2},
      {585, 1}, {585, 0}, {585, 2}, {655, 1}, {725, 1}, {795, 1}};
  EXPECT_EQ(log, expected);
}

TEST_F(SchedulerTest, ChargesStopAtRunUntilDeadline) {
  std::vector<sim::Time> ends;
  sched_.spawn([&] {
    for (int i = 0; i < 100; ++i) {
      sched_.charge_current(10);
      ends.push_back(engine_.now());
    }
  });
  // Charges run from 375 (one context switch) in 10 ns steps: the one
  // ending at 505 is past the deadline and waits for the next run.
  engine_.run_until(500);
  ASSERT_FALSE(ends.empty());
  EXPECT_EQ(ends.back(), 495);
  EXPECT_EQ(engine_.now(), 500);
  engine_.run();
  EXPECT_EQ(ends.size(), 100u);
  EXPECT_EQ(ends.back(), 1375);
  EXPECT_EQ(engine_.now(), 1375);
}

TEST_F(SchedulerTest, SpawnFromThreadChargesCost) {
  sim::Time spawn_cost = -1;
  sched_.spawn([&] {
    const sim::Time before = engine_.now();
    sched_.spawn([] {});
    spawn_cost = engine_.now() - before;
  });
  engine_.run();
  EXPECT_EQ(spawn_cost, machine_.costs().thread_spawn);
}

TEST_F(SchedulerTest, ManyThreadsAllComplete) {
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    sched_.spawn([&done, this, i] {
      sched_.work(sim::nanoseconds(100 * (i + 1)));
      ++done;
    });
  }
  engine_.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(sched_.live_threads(), 0);
}

TEST_F(SchedulerTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine engine;
    mach::Machine machine(engine, "n", mach::CacheTopology::quad_core(),
                          mach::CostBook::xeon_quad());
    Scheduler sched(machine);
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 8; ++i) {
      sched.spawn([&order, &sched, i] {
        sched.work(sim::nanoseconds(50 * (8 - i)));
        order.push_back(static_cast<std::uint64_t>(i));
      });
    }
    engine.run();
    return std::pair(order, engine.now());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- charges across fibers and nodes ------------------------------------------

/// Two nodes of two cores, one fiber per core. Fiber k (node k / 2, core
/// k % 2) charges kCharge[k] ns kCharges times and logs (time, k) after
/// each charge, then calls @p after(k, i). Some charges of different
/// fibers end at the same instant, and with four busy cores most charges
/// cannot advance in place: their resumes are engine events, which a
/// charge may run by switching straight to the next fiber, across nodes. Node n lives in
/// partition n % partitions; log[p] holds partition p's entries in the
/// order they ran. With @p steps, each fiber hands the same charges, logs
/// and calls to Scheduler::spin as steps instead.
struct ChargeWorld {
  static constexpr sim::Time kCharge[4] = {20, 35, 70, 80};
  static constexpr int kCharges = 12;
  static constexpr sim::Time kLookahead = 100;
  using Log = std::vector<std::pair<sim::Time, int>>;
  using After = std::function<void(int k, int i)>;

  /// Fiber k's loop as steps: log and call after() at each charge's end,
  /// then charge the next.
  struct Steps final : SpinSteps {
    sim::Engine& engine;
    Log& out;
    int k;
    After after;
    int i = 0;
    Steps(sim::Engine& e, Log& o, int fiber, After a)
        : engine(e), out(o), k(fiber), after(std::move(a)) {}
    sim::Time step() override {
      if (i > 0) {
        out.emplace_back(engine.now(), k);
        if (after) after(k, i - 1);
      }
      if (i == kCharges) return kHandBack;
      ++i;
      return kCharge[k];
    }
  };

  sim::Engine engine;
  std::vector<std::unique_ptr<mach::Machine>> machines;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  Log log[2];

  explicit ChargeWorld(int partitions, int workers = 1, After after = {},
                       bool steps = false) {
    if (partitions > 1) engine.configure_partitions(partitions, kLookahead);
    engine.set_workers(workers);
    for (int n = 0; n < 2; ++n) {
      sim::Engine::PartitionScope scope(engine, n % partitions);
      machines.push_back(std::make_unique<mach::Machine>(
          engine, "node" + std::to_string(n), mach::CacheTopology::uniform(2, 2),
          mach::CostBook::xeon_quad()));
      scheds.push_back(std::make_unique<Scheduler>(*machines.back()));
    }
    for (int k = 0; k < 4; ++k) {
      Scheduler& s = *scheds[static_cast<std::size_t>(k / 2)];
      Log& out = log[(k / 2) % partitions];
      ThreadAttrs a;
      a.bind_core = k % 2;
      s.spawn([this, &s, &out, k, after, steps] {
        if (steps) {
          Steps st(engine, out, k, after);
          s.spin(st);
          return;
        }
        for (int i = 0; i < kCharges; ++i) {
          s.charge_current(kCharge[k]);
          out.emplace_back(engine.now(), k);
          if (after) after(k, i);
        }
      }, a);
    }
  }
};

/// The one-partition log, pinned at the engine-round-trip implementation
/// (every charge resume run from the engine stack).
const ChargeWorld::Log& pinned_charge_log() {
  static const ChargeWorld::Log log{
      {395, 0}, {410, 1}, {415, 0}, {435, 0}, {445, 2}, {445, 1},
      {455, 3}, {455, 0}, {475, 0}, {480, 1}, {495, 0}, {515, 2},
      {515, 1}, {515, 0}, {535, 3}, {535, 0}, {550, 1}, {555, 0},
      {575, 0}, {585, 2}, {585, 1}, {595, 0}, {615, 3}, {615, 0},
      {620, 1}, {655, 2}, {655, 1}, {690, 1}, {695, 3}, {725, 2},
      {725, 1}, {760, 1}, {775, 3}, {795, 2}, {795, 1}, {855, 3},
      {865, 2}, {935, 3}, {935, 2}, {1005, 2}, {1015, 3}, {1075, 2},
      {1095, 3}, {1145, 2}, {1175, 3}, {1215, 2}, {1255, 3}, {1335, 3}};
  return log;
}

TEST(ChargeHandoff, ResumeLogIsPinned) {
  ChargeWorld w(1);
  w.engine.run();
  EXPECT_EQ(w.log[0], pinned_charge_log());
  EXPECT_EQ(w.engine.events_executed(), 53u);
}

// The same nodes in two partitions, at one and two workers: each node's log
// is its part of the one-partition log, so no charge ran past a window's
// horizon. Partition 0 also logs a cross-partition marker sent by node 1 at
// its first charge; fibers that ran past the horizon would log times after
// it before it arrived (or the marker would arrive in the past).
TEST(ChargeHandoff, NoHandoffCrossesAWindowHorizon) {
  for (const int workers : {1, 2}) {
    ChargeWorld* world = nullptr;
    ChargeWorld w(2, workers, [&world](int k, int i) {
      if (k != 2 || i != 0) return;
      sim::Engine& e = world->engine;
      e.schedule_cross(0, e.now() + ChargeWorld::kLookahead,
                       [world] { world->log[0].emplace_back(world->engine.now(), -1); });
    });
    world = &w;
    w.engine.run();
    for (int p = 0; p < 2; ++p) {
      ChargeWorld::Log mine;
      for (const auto& entry : pinned_charge_log()) {
        if (entry.second / 2 == p) mine.push_back(entry);
      }
      ChargeWorld::Log fibers;
      for (const auto& entry : w.log[p]) {
        if (entry.second >= 0) fibers.push_back(entry);
      }
      EXPECT_EQ(fibers, mine) << "partition " << p << ", workers " << workers;
    }
    EXPECT_TRUE(std::is_sorted(
        w.log[0].begin(), w.log[0].end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }))
        << "workers " << workers;
    EXPECT_EQ(w.log[0].size(), pinned_charge_log().size() / 2 + 1);
  }
}

TEST(ChargeHandoff, NoHandoffCrossesARunUntilDeadline) {
  ChargeWorld w(1);
  constexpr sim::Time kDeadline = 1000;
  w.engine.run_until(kDeadline);
  ASSERT_FALSE(w.log[0].empty());
  for (const auto& entry : w.log[0]) EXPECT_LE(entry.first, kDeadline);
  w.engine.run();
  EXPECT_EQ(w.log[0], pinned_charge_log());
}

TEST(ChargeHandoff, NoHandoffAfterAStop) {
  ChargeWorld* world = nullptr;
  ChargeWorld w(1, 1, [&world](int k, int i) {
    if (k == 1 && i == 3) world->engine.stop();
  });
  world = &w;
  w.engine.run();
  ASSERT_FALSE(w.log[0].empty());
  // The stopping fiber's entry is the last: its next charge found the stop
  // pending and went back to the engine, which returned.
  EXPECT_EQ(w.log[0].back().second, 1);
  const std::size_t at_stop = w.log[0].size();
  w.engine.run();
  EXPECT_GT(w.log[0].size(), at_stop);
  EXPECT_EQ(w.log[0], pinned_charge_log());
}

// A fiber that a charge handed the host thread to, and that throws, ends
// its thread; the exception leaves through the engine stack's resume event
// and reaches run()'s caller.
TEST(ChargeHandoff, ThrowFromAHandedToFiberReachesTheCaller) {
  for (const int partitions : {1, 2}) {
    ChargeWorld w(partitions, 1, [](int k, int i) {
      if (k == 1 && i == 5) throw std::runtime_error("fiber 1");
    });
    try {
      w.engine.run();
      ADD_FAILURE() << "no exception, partitions " << partitions;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fiber 1") << "partitions " << partitions;
    }
    EXPECT_EQ(w.scheds[0]->live_threads(), 1) << "partitions " << partitions;
  }
}

// --- spin steps ----------------------------------------------------------------

// The charge world's fibers hand their loops to Scheduler::spin: each step
// is charged as the fiber's charge was, in place or as an event in the
// slot of the charge's resume, so the log and the event count are the
// pinned ones.
TEST(SpinSteps, StepsChargeAsTheFiberWould) {
  ChargeWorld w(1, 1, {}, /*steps=*/true);
  w.engine.run();
  EXPECT_EQ(w.log[0], pinned_charge_log());
  EXPECT_EQ(w.engine.events_executed(), 53u);
  ChargeWorld fibers(1);
  fibers.engine.run();
  for (std::size_t n = 0; n < 2; ++n) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(w.scheds[n]->core_busy_time(c),
                fibers.scheds[n]->core_busy_time(c));
    }
  }
}

TEST(SpinSteps, StepsStayWithinAWindowHorizon) {
  for (const int workers : {1, 2}) {
    ChargeWorld* world = nullptr;
    ChargeWorld w(2, workers, [&world](int k, int i) {
      if (k != 2 || i != 0) return;
      sim::Engine& e = world->engine;
      e.schedule_cross(0, e.now() + ChargeWorld::kLookahead,
                       [world] { world->log[0].emplace_back(world->engine.now(), -1); });
    }, /*steps=*/true);
    world = &w;
    w.engine.run();
    for (int p = 0; p < 2; ++p) {
      ChargeWorld::Log mine;
      for (const auto& entry : pinned_charge_log()) {
        if (entry.second / 2 == p) mine.push_back(entry);
      }
      ChargeWorld::Log fibers;
      for (const auto& entry : w.log[p]) {
        if (entry.second >= 0) fibers.push_back(entry);
      }
      EXPECT_EQ(fibers, mine) << "partition " << p << ", workers " << workers;
    }
    EXPECT_TRUE(std::is_sorted(
        w.log[0].begin(), w.log[0].end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }))
        << "workers " << workers;
  }
}

TEST(SpinSteps, StepsStopAtARunUntilDeadline) {
  ChargeWorld w(1, 1, {}, /*steps=*/true);
  constexpr sim::Time kDeadline = 1000;
  w.engine.run_until(kDeadline);
  ASSERT_FALSE(w.log[0].empty());
  for (const auto& entry : w.log[0]) EXPECT_LE(entry.first, kDeadline);
  w.engine.run();
  EXPECT_EQ(w.log[0], pinned_charge_log());
}

TEST(SpinSteps, StepsStopAtAStop) {
  ChargeWorld* world = nullptr;
  ChargeWorld w(1, 1, [&world](int k, int i) {
    if (k == 1 && i == 3) world->engine.stop();
  }, /*steps=*/true);
  world = &w;
  w.engine.run();
  ASSERT_FALSE(w.log[0].empty());
  EXPECT_EQ(w.log[0].back().second, 1);
  const std::size_t at_stop = w.log[0].size();
  w.engine.run();
  EXPECT_GT(w.log[0].size(), at_stop);
  EXPECT_EQ(w.log[0], pinned_charge_log());
}

/// Charges 20 ns per step, forever, and counts its steps.
struct Forever final : SpinSteps {
  int* steps;
  explicit Forever(int* s) : steps(s) {}
  sim::Time step() override {
    ++*steps;
    return 20;
  }
};

// A thread unwound mid-spin leaves no step behind: the engine, which
// outlives the scheduler here, runs nothing of it afterwards.
TEST(SpinSteps, UnwoundThreadLeavesNoStepPending) {
  sim::Engine engine;
  mach::Machine machine(engine, "node0", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  int steps = 0;
  {
    Scheduler sched(machine);
    sched.spawn([&] {
      Forever f(&steps);
      sched.spin(f);
    });
    // A second spinner keeps an event due before each step's end, so
    // steps cannot advance in place and one is always pending.
    sched.spawn([&] {
      Forever f(&steps);
      sched.spin(f);
    });
    engine.run_until(1000);
    ASSERT_GT(steps, 0);
    EXPECT_GT(engine.pending_events(), 0u);
    sched.unwind_threads();
    EXPECT_EQ(engine.pending_events(), 0u);
  }
  const int before = steps;
  const std::uint64_t events = engine.events_executed();
  engine.run();
  EXPECT_EQ(steps, before);
  EXPECT_EQ(engine.events_executed(), events);
}

// --- idle passes --------------------------------------------------------------

/// Two nodes of two cores. Each node has an idle hook that always wants to
/// run, charges kHookCost[k] and logs (time, k) for core k = 2 * node +
/// core, then calls @p after(k, pass); one fiber per node sleeps kSleep, so
/// the idle loops keep polling until it finishes. An idle pass re-arms
/// itself, and most passes are due before any other event of their
/// partition. Node n lives in partition n % partitions; log[p] holds
/// partition p's entries in the order they ran.
struct IdleWorld {
  static constexpr sim::Time kHookCost[4] = {0, 150, 400, 900};
  static constexpr sim::Time kSleep = 5000;
  static constexpr sim::Time kLookahead = 100;
  using Log = std::vector<std::pair<sim::Time, int>>;

  sim::Engine engine;
  std::vector<std::unique_ptr<mach::Machine>> machines;
  std::vector<std::unique_ptr<Scheduler>> scheds;
  Log log[2];

  explicit IdleWorld(int partitions, int workers = 1,
                     std::function<void(int k, int pass)> after = {}) {
    if (partitions > 1) engine.configure_partitions(partitions, kLookahead);
    engine.set_workers(workers);
    for (int n = 0; n < 2; ++n) {
      sim::Engine::PartitionScope scope(engine, n % partitions);
      machines.push_back(std::make_unique<mach::Machine>(
          engine, "node" + std::to_string(n),
          mach::CacheTopology::uniform(2, 2), mach::CostBook::xeon_quad()));
      scheds.push_back(std::make_unique<Scheduler>(*machines.back()));
      Scheduler& s = *scheds.back();
      Log& out = log[n % partitions];
      s.add_idle_hook(Hook{
          [this, &out, n, after, passes = std::vector<int>(2)](
              HookContext& h) mutable {
            const int k = 2 * n + h.core();
            h.charge(kHookCost[k]);
            out.emplace_back(engine.now(), k);
            if (after) after(k, passes[static_cast<std::size_t>(h.core())]++);
          },
          [](int) { return true; }});
      s.spawn([&s] { s.sleep_for(kSleep); });
    }
  }
};

std::uint64_t fnv_of(const IdleWorld::Log& log) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& [t, k] : log) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(t),
                                  static_cast<std::uint64_t>(k)}) {
      h ^= v;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The one-partition pass log, pinned: every idle pass runs as an engine
/// event of its own.
constexpr std::size_t kIdleLogSize = 159;
constexpr std::uint64_t kIdleLogHash = 2594275859413298360ull;
constexpr std::uint64_t kIdleWorldEvents = 174;

IdleWorld::Log one_partition_idle_log() {
  IdleWorld w(1);
  w.engine.run();
  return w.log[0];
}

TEST(IdleTicks, PassLogIsPinned) {
  IdleWorld w(1);
  w.engine.run();
  EXPECT_EQ(w.log[0].size(), kIdleLogSize);
  EXPECT_EQ(fnv_of(w.log[0]), kIdleLogHash);
  EXPECT_EQ(w.engine.events_executed(), kIdleWorldEvents);
  EXPECT_EQ(w.log[0].front(), std::make_pair(sim::Time{0}, 1));
}

TEST(IdleTicks, PassesStopAtARunUntilDeadline) {
  const IdleWorld::Log full = one_partition_idle_log();
  IdleWorld w(1);
  constexpr sim::Time kDeadline = 1234;
  w.engine.run_until(kDeadline);
  ASSERT_FALSE(w.log[0].empty());
  for (const auto& entry : w.log[0]) EXPECT_LE(entry.first, kDeadline);
  const IdleWorld::Log prefix(full.begin(),
                              full.begin() + static_cast<std::ptrdiff_t>(
                                                 w.log[0].size()));
  EXPECT_EQ(w.log[0], prefix);
  EXPECT_GT(full[w.log[0].size()].first, kDeadline);
  w.engine.run();
  EXPECT_EQ(w.log[0], full);
}

TEST(IdleTicks, PassesStopAtAStop) {
  const IdleWorld::Log full = one_partition_idle_log();
  IdleWorld* world = nullptr;
  std::size_t at_stop = 0;
  IdleWorld w(1, 1, [&world, &at_stop](int k, int pass) {
    if (k != 0 || pass != 20) return;
    world->engine.stop();
    at_stop = world->log[0].size();
  });
  world = &w;
  w.engine.run();
  // The stopping pass is the last: the next pass, due right after it on
  // the same core, found the stop pending.
  ASSERT_GT(at_stop, 0u);
  EXPECT_EQ(w.log[0].size(), at_stop);
  w.engine.run();
  EXPECT_GT(w.log[0].size(), at_stop);
  EXPECT_EQ(w.log[0], full);
}

// The same nodes in two partitions, at one and two workers: each node's log
// is its part of the one-partition log. Partition 0 also logs a
// cross-partition marker sent by node 1's first pass on core 3; passes that
// ran past a window's horizon would log times after it before it arrived
// (or the marker would arrive in the past).
TEST(IdleTicks, PassesStayWithinAWindowHorizon) {
  const IdleWorld::Log full = one_partition_idle_log();
  for (const int workers : {1, 2}) {
    IdleWorld* world = nullptr;
    IdleWorld w(2, workers, [&world](int k, int pass) {
      if (k != 3 || pass != 0) return;
      sim::Engine& e = world->engine;
      e.schedule_cross(0, e.now() + IdleWorld::kLookahead, [world] {
        world->log[0].emplace_back(world->engine.now(), -1);
      });
    });
    world = &w;
    w.engine.run();
    for (int p = 0; p < 2; ++p) {
      IdleWorld::Log mine;
      for (const auto& entry : full) {
        if (entry.second / 2 == p) mine.push_back(entry);
      }
      IdleWorld::Log passes;
      for (const auto& entry : w.log[p]) {
        if (entry.second >= 0) passes.push_back(entry);
      }
      EXPECT_EQ(passes, mine) << "partition " << p << ", workers " << workers;
    }
    EXPECT_TRUE(std::is_sorted(
        w.log[0].begin(), w.log[0].end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }))
        << "workers " << workers;
  }
}

TEST(SchedulerPartition, SpawnPinsToAttrsPartition) {
  sim::Engine engine;
  engine.configure_partitions(2, sim::microseconds(1));
  mach::Machine machine(engine, "node0", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  Scheduler sched(machine);  // built in partition 0
  int seen_default = -1, seen_pinned = -1, seen_foreign_caller = -1;
  sched.spawn([&] { seen_default = engine.current_partition(); });
  ThreadAttrs pinned;
  pinned.partition = 1;
  sched.spawn([&] { seen_pinned = engine.current_partition(); }, pinned);
  {
    // A spawn arriving from a foreign partition's scope (e.g. a stolen
    // progression pass) must still land in the scheduler's home partition,
    // not the caller's.
    sim::Engine::PartitionScope scope(engine, 1);
    sched.spawn([&] { seen_foreign_caller = engine.current_partition(); });
  }
  ThreadAttrs bad;
  bad.partition = 7;
  EXPECT_THROW(sched.spawn([] {}, bad), std::out_of_range);
  engine.run();
  EXPECT_EQ(seen_default, 0);
  EXPECT_EQ(seen_pinned, 1);
  EXPECT_EQ(seen_foreign_caller, 0);
}

}  // namespace
}  // namespace pm2::mth
