// A Cluster destroyed with threads suspended mid-body: a deadlock, a run cut
// at a deadline, a run that threw. ~Cluster unwinds those threads, so their
// frames release what they own, and no body carries on past its wait.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "nmad/cluster.hpp"
#include "simthread/exec_context.hpp"
#include "sync/completion_flag.hpp"
#include "sync/spinlock.hpp"

namespace pm2::nm {
namespace {

/// Sets a flag when the frame that holds it is left.
struct Released {
  bool* released;
  ~Released() { *released = true; }
};

/// A destructor that charges: outside a run the charge suspends the fiber.
struct ChargeOnExit {
  bool* done;
  ~ChargeOnExit() {
    mth::ExecContext::current().charge(sim::nanoseconds(50));
    *done = true;
  }
};

TEST(Teardown, ThrowOutOfRunUnwindsAWaitingThread) {
  // The world is destroyed while the body's exception propagates, so the
  // host thread already counts one uncaught exception when ~Cluster
  // unwinds the waiter. It must leave its wait, not be woken into it
  // again (that hung) or carry on past it.
  for (const int partitions : {1, 2}) {
    for (const int workers : {1, 2}) {
      if (workers > partitions) continue;
      SCOPED_TRACE("partitions " + std::to_string(partitions) + ", workers " +
                   std::to_string(workers));
      bool released = false;
      bool carried_on = false;
      std::string caught;
      try {
        ClusterConfig cfg;
        cfg.partitions = partitions;
        cfg.workers = workers;
        std::optional<sync::CompletionFlag> never;  // outlives the world
        Cluster world(cfg);
        never.emplace(world.sched(0), "never");
        world.spawn(0, [&] {
          const Released frame{&released};
          never->wait_passive();
          carried_on = true;
        });
        world.spawn(1, [&world] {
          world.sched(1).work(sim::microseconds(5));
          throw std::runtime_error("body failed");
        });
        world.run();
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
      EXPECT_EQ(caught, "body failed");
      EXPECT_TRUE(released);
      EXPECT_FALSE(carried_on);
    }
  }
}

TEST(Teardown, RunCutAtADeadlineReleasesWhatAThreadOwns) {
  std::weak_ptr<int> owned;
  bool carried_on = false;
  {
    Cluster world(ClusterConfig{});
    world.spawn(0, [&] {
      const auto mine = std::make_shared<int>(7);
      owned = mine;
      world.sched(0).work(sim::microseconds(100));
      carried_on = true;
    });
    world.engine().run_until(sim::microseconds(10));
    EXPECT_FALSE(owned.expired());
  }
  EXPECT_TRUE(owned.expired());
  EXPECT_FALSE(carried_on);
}

TEST(Teardown, DestructorThatChargesRunsToItsEnd) {
  // Unwinding runs ~ChargeOnExit, whose charge suspends the fiber, then
  // ~SpinGuard, whose release charges too: each is resumed where it
  // suspended, and the lock is free once the world is gone.
  bool done = false;
  bool carried_on = false;
  std::optional<sync::SpinLock> lock;  // outlives the world
  {
    Cluster world(ClusterConfig{});
    lock.emplace(world.sched(0), "held");
    world.spawn(0, [&] {
      const ChargeOnExit charge{&done};
      const sync::SpinGuard guard(*lock);
      world.sched(0).work(sim::microseconds(100));
      carried_on = true;
    });
    world.engine().run_until(sim::microseconds(10));
    EXPECT_TRUE(lock->held());
  }
  EXPECT_TRUE(done);
  EXPECT_FALSE(lock->held());
  EXPECT_FALSE(carried_on);
}

}  // namespace
}  // namespace pm2::nm
