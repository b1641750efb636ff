#include "pioman/server.hpp"

#include <gtest/gtest.h>

namespace pm2::piom {
namespace {

/// Scriptable poll source for testing the server.
class FakeSource : public PollSource {
 public:
  explicit FakeSource(sim::Time cost = 100) : cost_(cost) {}

  bool poll(mth::ExecContext& ctx) override {
    ++polls_;
    last_core_ = ctx.core();
    ctx.charge(cost_);
    if (work_ > 0) {
      --work_;
      return true;
    }
    return false;
  }
  bool pending() const override { return work_ > 0; }

  int polls_ = 0;
  int work_ = 0;
  int last_core_ = -1;
  sim::Time cost_;
};

class ServerTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  mach::Machine machine_{engine_, "node", mach::CacheTopology::quad_core(),
                         mach::CostBook::xeon_quad()};
  mth::Scheduler sched_{machine_};
  Server server_{sched_};
};

TEST_F(ServerTest, PollOncePollsRegisteredSources) {
  FakeSource src;
  src.work_ = 1;
  server_.register_source(&src);
  bool progressed = false;
  sched_.spawn([&] {
    progressed = server_.poll_once(mth::ExecContext::current());
  });
  engine_.run();
  EXPECT_TRUE(progressed);
  EXPECT_EQ(src.polls_, 1);
  EXPECT_EQ(server_.passes(), 1u);
}

TEST_F(ServerTest, PassChargesListManagement) {
  FakeSource src(0);  // source itself free: isolate the server cost
  server_.register_source(&src);
  sim::Time cost = -1;
  sched_.spawn([&] {
    const sim::Time t0 = engine_.now();
    server_.poll_once(mth::ExecContext::current());
    cost = engine_.now() - t0;
  });
  engine_.run();
  // pioman_pass + internal try-lock cycle; no completion (no progress).
  EXPECT_GE(cost, machine_.costs().pioman_pass);
  EXPECT_LE(cost, machine_.costs().pioman_pass + 200);
}

TEST_F(ServerTest, CompletionChargesExtra) {
  FakeSource src(0);
  server_.register_source(&src);
  sim::Time idle_cost = 0, completion_cost = 0;
  sched_.spawn([&] {
    auto& ctx = mth::ExecContext::current();
    sim::Time t0 = engine_.now();
    server_.poll_once(ctx);  // no work
    idle_cost = engine_.now() - t0;
    src.work_ = 1;
    t0 = engine_.now();
    server_.poll_once(ctx);  // completes one request
    completion_cost = engine_.now() - t0;
  });
  engine_.run();
  EXPECT_EQ(completion_cost - idle_cost, machine_.costs().pioman_completion);
}

TEST_F(ServerTest, HasPendingHonoursPollCoreBinding) {
  FakeSource src;
  src.work_ = 1;
  server_.register_source(&src);
  EXPECT_TRUE(server_.has_pending(0));
  EXPECT_TRUE(server_.has_pending(2));
  server_.bind_polling(1);
  EXPECT_TRUE(server_.has_pending(1));
  EXPECT_FALSE(server_.has_pending(0));
}

TEST_F(ServerTest, HooksPollIdleCores) {
  FakeSource src;
  src.work_ = 5;
  server_.register_source(&src);
  server_.enable_hooks();
  EXPECT_TRUE(server_.hooks_enabled());
  sched_.spawn([&] { sched_.work(sim::microseconds(20)); });
  engine_.run();
  EXPECT_GE(src.polls_, 5);
  EXPECT_EQ(src.work_, 0);
}

TEST_F(ServerTest, RemoveHooksStopsPolling) {
  FakeSource src;
  src.work_ = 1000000;  // effectively endless
  server_.register_source(&src);
  server_.enable_hooks();
  sched_.spawn([&] {
    sched_.work(sim::microseconds(5));
    server_.remove_hooks();
    const int seen = src.polls_;
    sched_.work(sim::microseconds(5));
    EXPECT_EQ(src.polls_, seen);
  });
  engine_.run();
  EXPECT_FALSE(server_.hooks_enabled());
  src.work_ = 0;
}

TEST_F(ServerTest, UnregisterStopsSource) {
  FakeSource src;
  src.work_ = 1;
  server_.register_source(&src);
  server_.unregister_source(&src);
  sched_.spawn([&] {
    server_.poll_once(mth::ExecContext::current());
  });
  engine_.run();
  EXPECT_EQ(src.polls_, 0);
}

TEST_F(ServerTest, ConcurrentPassSkipsViaTryLock) {
  // A source that re-enters the server: the inner pass must be skipped
  // (the internal list lock is try-only), not deadlock.
  class Reentrant : public PollSource {
   public:
    explicit Reentrant(Server& s) : server_(s) {}
    bool poll(mth::ExecContext& ctx) override {
      ++polls_;
      if (polls_ == 1) server_.poll_once(ctx);  // nested
      return false;
    }
    bool pending() const override { return false; }
    Server& server_;
    int polls_ = 0;
  };
  Reentrant src(server_);
  server_.register_source(&src);
  sched_.spawn([&] { server_.poll_once(mth::ExecContext::current()); });
  engine_.run();
  EXPECT_EQ(src.polls_, 1);
  EXPECT_EQ(server_.skipped_passes(), 1u);
}

}  // namespace
}  // namespace pm2::piom
