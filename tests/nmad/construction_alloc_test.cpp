// Allocation budget of world construction. A world should pay for what it
// uses: building the same world again finds every instrument registered,
// every stack pooled and every event slot built on first use, so what is
// left is the objects the world itself is made of. Counting global
// operator new pins that, so a layer that starts composing strings or
// allocating containers per lock or per endpoint fails here instead of
// showing up as set-up time.
//
// Kept in its own test binary: the global new/delete replacement is
// process-wide and should not be linked into the other suites.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "simcore/event_queue.hpp"
#include "simthread/stack_pool.hpp"
#include "sync/spinlock.hpp"

namespace {

std::uint64_t g_news = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pm2::nm {
namespace {

/// Second-build budgets, with headroom over what libstdc++ 12 counts: 127
/// and 2,194 (405 and 11,896 when instruments were keyed by composed
/// strings, every lock and endpoint queue was a std::deque and the stack
/// pool kept only half of a fanin world's 128 stacks).
constexpr std::uint64_t kPingpongBudget = 160;
constexpr std::uint64_t kFaninEndpointsBudget = 2500;
/// Allocations per message inside run() of the pingpong shape: 6.5 when
/// every gate bound its receives in a hash map and every pass collected its
/// received packets in a fresh vector.
constexpr double kPingpongRunBudgetPerMessage = 4.6;

ClusterConfig pingpong_shape() {
  ClusterConfig cfg;
  cfg.topology = mach::CacheTopology::quad_core();
  cfg.nm.lock = LockMode::kFine;
  cfg.nm.wait = WaitMode::kBusy;
  cfg.nm.progress = ProgressMode::kAppDriven;
  return cfg;
}

ClusterConfig fanin_endpoints_shape() {
  ClusterConfig cfg;
  cfg.topology = mach::CacheTopology::dual_quad_core();
  cfg.nm.lock = LockMode::kFine;
  cfg.endpoints = 64;
  cfg.rx_queues = 64;
  return cfg;
}

/// Allocations made by building @p cfg with @p fibers_per_node fibers on
/// each of its two nodes (never run).
std::uint64_t build_allocations(const ClusterConfig& cfg, int fibers_per_node) {
  const std::uint64_t before = g_news;
  Cluster world(cfg);
  for (int t = 0; t < fibers_per_node; ++t) {
    for (int node = 0; node < 2; ++node) {
      world.spawn(node, [&world] { world.core(0); });
    }
  }
  return g_news - before;
}

TEST(ConstructionAlloc, PingpongShapedWorldStaysUnderBudget) {
  build_allocations(pingpong_shape(), 1);
  const std::uint64_t second = build_allocations(pingpong_shape(), 1);
  EXPECT_LE(second, kPingpongBudget);
}

TEST(ConstructionAlloc, FaninEndpointsShapedWorldStaysUnderBudget) {
  build_allocations(fanin_endpoints_shape(), 64);
  const std::uint64_t second = build_allocations(fanin_endpoints_shape(), 64);
  EXPECT_LE(second, kFaninEndpointsBudget);
}

TEST(ConstructionAlloc, SecondFaninBuildTakesEveryStackFromThePool) {
  // A build that allocates fresh stacks grows the resident set world after
  // world: the heap hands a freed stack's memory back at shifted offsets,
  // and a fiber commits the pages it touches wherever its stack lands.
  auto& pool = mth::StackPool::instance();
  build_allocations(fanin_endpoints_shape(), 64);
  const std::uint64_t fresh = pool.fresh_allocs();
  const std::uint64_t reuses = pool.reuses();
  build_allocations(fanin_endpoints_shape(), 64);
  EXPECT_EQ(pool.fresh_allocs(), fresh);
  EXPECT_EQ(pool.reuses(), reuses + 128);
}

/// Allocations per message inside run() of the pingpong-shaped world the
/// overhead gates time: 192 round trips of 64 B, 384 messages.
double run_allocations_per_message() {
  constexpr int kRoundTrips = 192;
  Cluster world(pingpong_shape());
  for (int side = 0; side < 2; ++side) {
    world.spawn(side, [&world, side] {
      Core& c = world.core(side);
      Gate* g = world.gate(side, 1 - side);
      std::vector<std::uint8_t> b(64);
      for (int i = 0; i < kRoundTrips; ++i) {
        if (side == 0) {
          c.send(g, 1, b.data(), b.size());
          c.recv(g, 2, b.data(), b.size());
        } else {
          c.recv(g, 1, b.data(), b.size());
          c.send(g, 2, b.data(), b.size());
        }
      }
    });
  }
  const std::uint64_t before = g_news;
  world.run();
  return static_cast<double>(g_news - before) / (2 * kRoundTrips);
}

// What a message still allocates: its packet's payload representation and
// the vectors the strategy and the packet builder make for it. A gate's
// bound receives and the pass's received packets allocate nothing per
// message.
TEST(ConstructionAlloc, PingpongRunStaysUnderItsPerMessageBudget) {
  run_allocations_per_message();
  EXPECT_LE(run_allocations_per_message(), kPingpongRunBudgetPerMessage);
}

TEST(ConstructionAlloc, UncontendedSpinLockAllocatesNothingButItsName) {
  Cluster world(pingpong_shape());
  mth::Scheduler& sched = world.sched(0);
  const std::string long_name = "construction-test-lock";  // past SSO
  { sync::SpinLock first(sched, long_name); }  // registers its instruments
  std::uint64_t built = 0, used = 0;
  world.spawn(0, [&] {
    std::uint64_t before = g_news;
    sync::SpinLock lock(sched, long_name);
    built = g_news - before;
    before = g_news;
    for (int i = 0; i < 4; ++i) {
      lock.lock();
      lock.unlock();
      if (lock.try_lock()) lock.unlock();
    }
    used = g_news - before;
  });
  world.run();
  EXPECT_EQ(built, 1u) << "beyond the copy of its name";
  EXPECT_EQ(used, 0u);
}

TEST(ConstructionAlloc, QueueBuildsOnlyTheSlotsItUses) {
  for (const std::size_t k : {1, 3, 40}) {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (int round = 0; round < 50; ++round) {
      for (std::size_t i = 0; i < k; ++i) {
        q.schedule(static_cast<sim::Time>(round * 100 + static_cast<int>(i)),
                   [&fired] { ++fired; });
      }
      while (!q.empty()) q.run_next([](sim::Time) {});
    }
    EXPECT_EQ(fired, 50 * k);
    EXPECT_LE(q.slots_built(), k) << "never held more than " << k;
  }
}

}  // namespace
}  // namespace pm2::nm
