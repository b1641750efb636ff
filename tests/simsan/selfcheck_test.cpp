// simsan selfcheck -- seeded racy / deadlocky / rule-breaking scenarios.
//
// Each test plants a known concurrency defect in a tiny simulated world and
// asserts that the analyzer reports it (and, symmetrically, that the fixed
// version analyzes clean). Because the simulator is deterministic, the
// reports are byte-stable: the last test re-runs a scenario and compares
// the full JSON reports.
#include <gtest/gtest.h>

#include <string>

#include "bench/common/harness.hpp"
#include "simsan/context.hpp"
#include "sync/barrier.hpp"
#include "sync/completion_flag.hpp"
#include "sync/semaphore.hpp"
#include "sync/spinlock.hpp"

namespace pm2 {
namespace {

class SimsanSelfcheck : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& an = san::Analyzer::global();
    an.reset();
    an.set_enabled(true);
  }
  void TearDown() override { san::Analyzer::global().set_enabled(false); }

  san::Analyzer& an() { return san::Analyzer::global(); }

  sim::Engine engine_;
  mach::Machine machine_{engine_, "node0", mach::CacheTopology::quad_core(),
                         mach::CostBook::xeon_quad()};
  mth::Scheduler sched_{machine_};

  mth::Thread* spawn_named(std::function<void()> fn, const std::string& name,
                           int core = -1) {
    mth::ThreadAttrs a;
    a.name = name;
    a.bind_core = core;
    return sched_.spawn(std::move(fn), a);
  }
};

// --- race detection ---------------------------------------------------------

TEST_F(SimsanSelfcheck, UnlockedSharedWriteRaces) {
  san::Shared list("test.list");
  auto writer = [&] {
    sched_.charge_current(100);
    SIMSAN_ACCESS(list);
  };
  spawn_named(writer, "w0", 0);
  spawn_named(writer, "w1", 1);
  engine_.run();
  EXPECT_GE(an().races(), 1u);
  EXPECT_EQ(an().lock_order_cycles(), 0u);
  EXPECT_EQ(an().context_violations(), 0u);
  ASSERT_FALSE(an().findings().empty());
  EXPECT_EQ(an().findings()[0].rule, "write-write-race");
  EXPECT_NE(an().findings()[0].message.find("test.list"), std::string::npos);
}

TEST_F(SimsanSelfcheck, LockedSharedWriteIsClean) {
  san::Shared list("test.list");
  sync::SpinLock lock(sched_, "test.lock");
  auto writer = [&] {
    sched_.charge_current(100);
    sync::SpinGuard g(lock);
    SIMSAN_ACCESS(list);
  };
  spawn_named(writer, "w0", 0);
  spawn_named(writer, "w1", 1);
  engine_.run();
  EXPECT_EQ(an().total_findings(), 0u);
}

TEST_F(SimsanSelfcheck, ReadersDoNotRaceWriterOrderedByFlag) {
  // write -> flag.set() -> wait() -> read: ordered by happens-before even
  // though no lock is ever held.
  san::Shared buf("test.buf");
  sync::CompletionFlag done(sched_, "test.done");
  spawn_named([&] {
    SIMSAN_ACCESS(buf);
    done.set();
  }, "producer", 0);
  spawn_named([&] {
    done.wait_passive();
    SIMSAN_ACCESS_RO(buf);
  }, "consumer", 1);
  engine_.run();
  EXPECT_EQ(an().total_findings(), 0u);
}

TEST_F(SimsanSelfcheck, UnorderedReadWriteRaces) {
  san::Shared buf("test.buf");
  spawn_named([&] { SIMSAN_ACCESS(buf); }, "writer", 0);
  spawn_named([&] {
    sched_.charge_current(500);
    SIMSAN_ACCESS_RO(buf);
  }, "reader", 1);
  engine_.run();
  EXPECT_GE(an().races(), 1u);
}

// --- lock-order cycles ------------------------------------------------------

TEST_F(SimsanSelfcheck, AbBaLockOrderCycleFlagged) {
  // The two acquisition chains never overlap in time (t2 starts 10 us
  // later), so no runtime deadlock occurs -- the *potential* is flagged.
  sync::SpinLock a(sched_, "lockA");
  sync::SpinLock b(sched_, "lockB");
  spawn_named([&] {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  }, "t0", 0);
  spawn_named([&] {
    sched_.work(sim::microseconds(10));
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
  }, "t1", 1);
  engine_.run();
  EXPECT_EQ(an().lock_order_cycles(), 1u);
  EXPECT_EQ(an().races(), 0u);
  bool found = false;
  for (const auto& f : an().findings()) {
    if (f.rule == "lock-order-cycle") {
      found = true;
      EXPECT_NE(f.message.find("lockA"), std::string::npos);
      EXPECT_NE(f.message.find("lockB"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SimsanSelfcheck, ConsistentLockOrderIsClean) {
  sync::SpinLock a(sched_, "lockA");
  sync::SpinLock b(sched_, "lockB");
  auto body = [&] {
    a.lock();
    b.lock();
    sched_.charge_current(200);
    b.unlock();
    a.unlock();
  };
  spawn_named(body, "t0", 0);
  spawn_named(body, "t1", 1);
  engine_.run();
  EXPECT_EQ(an().total_findings(), 0u);
}

// --- context rules ----------------------------------------------------------

TEST_F(SimsanSelfcheck, BlockingLockInHookContextReported) {
  sync::Semaphore sem(sched_, /*initial=*/1, "hook.sem");
  bool tried = false;
  sched_.add_idle_hook(mth::Hook{
      .run = [&](mth::HookContext& ctx) {
        ctx.charge(50);
        if (!tried) {
          tried = true;
          sem.acquire();  // contract violation: hooks must not block
        }
      },
      .want = [&](int) { return !tried; },
  });
  // Keep core 0 busy so an idle core runs the hook.
  spawn_named([&] { sched_.work(sim::microseconds(5)); }, "busy", 0);
  engine_.run();
  EXPECT_TRUE(tried);
  EXPECT_GE(an().context_violations(), 1u);
  bool found = false;
  for (const auto& f : an().findings()) {
    found = found || f.rule == "blocking-acquire-in-hook";
  }
  EXPECT_TRUE(found);
  // The acquisition was abandoned: the token is still there.
  EXPECT_EQ(sem.value(), 1);
}

TEST_F(SimsanSelfcheck, BlockingWhileHoldingSpinlockReported) {
  sync::SpinLock spin(sched_, "held.spin");
  sync::Semaphore sem(sched_, /*initial=*/1, "tokens");
  spawn_named([&] {
    spin.lock();
    sem.acquire();  // may-block primitive entered with a spinlock held
    spin.unlock();
  }, "t0", 0);
  engine_.run();
  EXPECT_GE(an().context_violations(), 1u);
  bool found = false;
  for (const auto& f : an().findings()) {
    if (f.rule == "block-while-spinlock-held") {
      found = true;
      EXPECT_NE(f.message.find("held.spin"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

// --- determinism ------------------------------------------------------------

TEST_F(SimsanSelfcheck, ReportsAreByteIdenticalAcrossRuns) {
  auto run_once = [] {
    auto& an = san::Analyzer::global();
    an.reset();
    an.set_enabled(true);
    sim::Engine engine;
    mach::Machine machine(engine, "node0", mach::CacheTopology::quad_core(),
                          mach::CostBook::xeon_quad());
    mth::Scheduler sched(machine);
    san::Shared list("det.list");
    sync::SpinLock a(sched, "detA");
    sync::SpinLock b(sched, "detB");
    mth::ThreadAttrs a0, a1;
    a0.name = "d0";
    a0.bind_core = 0;
    a1.name = "d1";
    a1.bind_core = 1;
    sched.spawn([&] {
      a.lock();
      b.lock();
      SIMSAN_ACCESS(list);
      b.unlock();
      a.unlock();
      SIMSAN_ACCESS(list);  // outside the locks: races with the other thread
    }, a0);
    sched.spawn([&] {
      sched.work(sim::microseconds(10));
      b.lock();
      a.lock();
      SIMSAN_ACCESS(list);
      a.unlock();
      b.unlock();
    }, a1);
    engine.run();
    return an.report_json();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"findings\""), std::string::npos);
  EXPECT_EQ(first, second);
  EXPECT_GE(san::Analyzer::global().races(), 1u);
  EXPECT_GE(san::Analyzer::global().lock_order_cycles(), 1u);
}

// --- the paper workload (Fig. 3 configurations) -----------------------------

class SimsanFig3Workload : public ::testing::Test {};

TEST_F(SimsanFig3Workload, NoLockingRacesLockedModesClean) {
  bench::BenchArgs args;
  args.simsan = true;
  auto findings_for = [&](nm::LockMode lock) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = lock;
    cfg.nm.wait = nm::WaitMode::kBusy;
    cfg.nm.progress = nm::ProgressMode::kAppDriven;
    return bench::run_simsan_report(args, "selfcheck", cfg);
  };
  EXPECT_GE(findings_for(nm::LockMode::kNone), 1u);
  EXPECT_EQ(findings_for(nm::LockMode::kCoarse), 0u);
  EXPECT_EQ(findings_for(nm::LockMode::kFine), 0u);
}

TEST_F(SimsanFig3Workload, AnalysisRunsAreDeterministic) {
  bench::BenchArgs args;
  args.simsan = true;
  nm::ClusterConfig cfg;
  cfg.nm.lock = nm::LockMode::kNone;
  cfg.nm.wait = nm::WaitMode::kBusy;
  cfg.nm.progress = nm::ProgressMode::kAppDriven;
  auto report_once = [&] {
    bench::run_simsan_report(args, "det", cfg);
    return san::Analyzer::global().report_json();
  };
  const std::string first = report_once();
  const std::string second = report_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace pm2
