#include "sync/completion_flag.hpp"

#include <gtest/gtest.h>

namespace pm2::sync {
namespace {

/// The three waiting policies, as nmad's wait modes call them; @p budget
/// applies to the fixed spin.
struct WaitFn {
  const char* name;
  void (*wait)(CompletionFlag& f, sim::Time budget);
};
constexpr WaitFn kWaits[3] = {
    {"busy", [](CompletionFlag& f, sim::Time) { f.wait_busy(); }},
    {"passive", [](CompletionFlag& f, sim::Time) { f.wait_passive(); }},
    {"fixed-spin",
     [](CompletionFlag& f, sim::Time b) { f.wait_fixed_spin(b); }},
};
constexpr sim::Time kBudget = sim::microseconds(5);

class FlagTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  mach::Machine machine_{engine_, "node0", mach::CacheTopology::quad_core(),
                         mach::CostBook::xeon_quad()};
  mth::Scheduler sched_{machine_};
};

TEST_F(FlagTest, AlreadySetReturnsImmediately) {
  CompletionFlag f(sched_);
  for (const WaitFn& w : kWaits) {
    sched_.spawn([&] {
      f.set();
      const sim::Time before = engine_.now();
      w.wait(f, kBudget);
      EXPECT_LT(engine_.now() - before, 100) << w.name;
    });
    engine_.run();
    f.reset();
  }
}

TEST_F(FlagTest, BusyWaitCompletesAndOccupiesCore) {
  CompletionFlag f(sched_);
  mth::ThreadAttrs a0, a1;
  a0.bind_core = 0;
  a1.bind_core = 1;
  bool done = false;
  sched_.spawn([&] {
    f.wait_busy();
    done = true;
  }, a0);
  sched_.spawn([&] {
    sched_.work(sim::microseconds(20));
    f.set();
  }, a1);
  engine_.run();
  EXPECT_TRUE(done);
  // The busy waiter burned ~20 us of CPU on core 0.
  EXPECT_GT(sched_.core_busy_time(0), sim::microseconds(18));
}

TEST_F(FlagTest, PassiveWaitFreesTheCore) {
  CompletionFlag f(sched_);
  mth::ThreadAttrs a0, a1;
  a0.bind_core = 0;
  a1.bind_core = 1;
  sched_.spawn([&] { f.wait_passive(); }, a0);
  sched_.spawn([&] {
    sched_.work(sim::microseconds(20));
    f.set();
  }, a1);
  engine_.run();
  EXPECT_LT(sched_.core_busy_time(0), sim::microseconds(5));
  EXPECT_EQ(f.blocked_waits(), 1u);
}

TEST_F(FlagTest, PassiveWaitCostsContextSwitches) {
  CompletionFlag f(sched_);
  mth::ThreadAttrs a0, a1;
  a0.bind_core = 0;
  a1.bind_core = 1;
  sim::Time set_at = 0, woke_at = 0;
  sched_.spawn([&] {
    f.wait_passive();
    woke_at = engine_.now();
  }, a0);
  sched_.spawn([&] {
    sched_.work(sim::microseconds(20));
    set_at = engine_.now();
    f.set();
  }, a1);
  engine_.run();
  // Switch-in (375 ns) plus the line transfer from core 1.
  EXPECT_GE(woke_at - set_at, machine_.costs().context_switch);
}

TEST_F(FlagTest, FixedSpinAvoidsSwitchWhenEventIsFast) {
  CompletionFlag f(sched_);
  mth::ThreadAttrs a0, a1;
  a0.bind_core = 0;
  a1.bind_core = 1;
  sched_.spawn([&] { f.wait_fixed_spin(sim::microseconds(5)); }, a0);
  sched_.spawn([&] {
    sched_.work(sim::microseconds(2));  // within the spin budget
    f.set();
  }, a1);
  engine_.run();
  EXPECT_EQ(f.blocked_waits(), 0u);  // never blocked
}

TEST_F(FlagTest, FixedSpinFallsBackToBlocking) {
  CompletionFlag f(sched_);
  mth::ThreadAttrs a0, a1;
  a0.bind_core = 0;
  a1.bind_core = 1;
  bool done = false;
  sched_.spawn([&] {
    f.wait_fixed_spin(sim::microseconds(5));
    done = true;
  }, a0);
  sched_.spawn([&] {
    sched_.work(sim::microseconds(50));  // far beyond the budget
    f.set();
  }, a1);
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.blocked_waits(), 1u);
  // Core 0 spun only ~5 us, then slept.
  EXPECT_LT(sched_.core_busy_time(0), sim::microseconds(10));
}

TEST_F(FlagTest, SetFromEngineContext) {
  CompletionFlag f(sched_);
  bool done = false;
  sched_.spawn([&] {
    f.wait_passive();
    done = true;
  });
  engine_.schedule_at(sim::microseconds(3), [&] { f.set(); });
  engine_.run();
  EXPECT_TRUE(done);
}

TEST_F(FlagTest, SetIsIdempotent) {
  CompletionFlag f(sched_);
  sched_.spawn([&] {
    f.set();
    f.set();
    EXPECT_TRUE(f.is_set());
    f.wait_busy();
  });
  engine_.run();
}

TEST_F(FlagTest, MultipleWaitersAllReleased) {
  CompletionFlag f(sched_);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    mth::ThreadAttrs a;
    a.bind_core = i;
    sched_.spawn([&, i] {
      kWaits[i].wait(f, sim::microseconds(100));
      ++released;
    }, a);
  }
  mth::ThreadAttrs a3;
  a3.bind_core = 3;
  sched_.spawn([&] {
    sched_.work(sim::microseconds(10));
    f.set();
  }, a3);
  engine_.run();
  EXPECT_EQ(released, 3);
}

TEST_F(FlagTest, CrossCoreCompletionPaysTwoLineTransfers) {
  // The Fig. 8 mechanism: setter on another core => the completion line
  // bounces twice (setter's write + waiter's final read).
  auto measure = [&](int poll_core) {
    sim::Engine engine;
    mach::Machine machine(engine, "n", mach::CacheTopology::quad_core(),
                          mach::CostBook::xeon_quad());
    mth::Scheduler sched(machine);
    CompletionFlag flag(sched);
    sim::Time set_at = 0, woke = 0;
    mth::ThreadAttrs a0;
    a0.bind_core = 0;
    sched.spawn([&] {
      flag.wait_busy();
      woke = engine.now();
    }, a0);
    mth::ThreadAttrs ap;
    ap.bind_core = poll_core;
    sched.spawn([&] {
      sched.work(sim::microseconds(10));
      set_at = engine.now();
      flag.set();
    }, ap);
    engine.run();
    return woke - set_at;
  };
  // (Polling on the app's own core means the app itself polls -- a second
  // thread there would cost context switches instead; see fig8_affinity
  // for the faithful same-core baseline.)
  const sim::Time shared = measure(1);
  const sim::Time far = measure(2);
  EXPECT_LT(shared, far);
  // Two transfers: difference is twice the per-line cost gap.
  sim::Engine probe_engine;
  mach::Machine probe(probe_engine, "probe", mach::CacheTopology::quad_core(),
                      mach::CostBook::xeon_quad());
  EXPECT_EQ(far - shared,
            2 * (probe.costs().line_same_chip - probe.costs().line_shared_l2));
}

TEST_F(FlagTest, TestChecksWithoutBlocking) {
  CompletionFlag f(sched_);
  sched_.spawn([&] {
    EXPECT_FALSE(f.test());
    f.set();
    EXPECT_TRUE(f.test());
  });
  engine_.run();
}

TEST_F(FlagTest, SignalBeforeWaitNeverBlocksAcrossReuse) {
  // set() strictly before wait() must take the fast path -- no scheduler
  // block -- under every policy, including after reset() re-arms the flag.
  CompletionFlag f(sched_);
  for (int round = 0; round < 2; ++round) {
    for (const WaitFn& w : kWaits) {
      const std::uint64_t blocked_before = f.blocked_waits();
      sched_.spawn([&] { f.set(); });
      mth::ThreadAttrs a;
      a.bind_core = 1;
      sched_.spawn([&] {
        // Arrive well after the setter ran: the signal is already latched.
        sched_.charge_current(sim::microseconds(5));
        w.wait(f, kBudget);
        EXPECT_TRUE(f.is_set());
      }, a);
      engine_.run();
      EXPECT_EQ(f.blocked_waits(), blocked_before) << w.name;
      f.reset();
      EXPECT_FALSE(f.is_set());
    }
  }
}

}  // namespace
}  // namespace pm2::sync
