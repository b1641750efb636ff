// Gates for the two scaling claims measured by BM_ConcurrentSenders:
//  - scalable endpoints (ISSUE 8): with 8 concurrent sender threads per
//    node, one endpoint per thread must beat fine-grained locking on a
//    single shared instance -- the per-endpoint split removes the residual
//    collect/matching/driver lock contention that kFine still pays;
//  - multi-queue NIC rails (ISSUE 9): with 16 pre-posted receiver threads
//    on a dual quad-core node, one RX completion queue per endpoint must
//    drain the traffic at least 1.5x faster than the single shared
//    completion queue, whose packets are popped and matched by one drainer
//    at a time while every other pumping context skips the held rail.
// Both gates run the BM_ConcurrentSenders workload: receivers pre-post
// every irecv, senders start at a fixed virtual settle time and push a
// window of isends, so the compared makespan is the traffic-drain phase
// (settle subtracted), not the cold-start cost of posting requests.
// Makespans are virtual time on the deterministic clock, so a strict
// comparison is stable across hosts; the full threads x strategy sweep
// lives in BM_ConcurrentSenders (bench/micro_engine).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <vector>

#include "nmad/cluster.hpp"

using namespace pm2;

namespace {

constexpr int kThreads = 8;
constexpr int kRailThreads = 16;
constexpr int kMsgs = 16;

/// Coarse locking at high oversubscription can starve forever on the
/// deterministic schedule (see BM_ConcurrentSenders); the cap turns any
/// such regression at these thread counts into a loud FAIL instead of a
/// hang. Capped worlds also leak the stuck fibers' stacks, so the gates
/// below fail fast on a capped run before comparing anything.
constexpr sim::Time kCap = sim::milliseconds(10);

/// Virtual makespan of the traffic-drain phase: @p threads receiver
/// threads on dual quad-core node 1 pre-post kMsgs irecvs each, then
/// @p threads senders on node 0 start at a fixed settle time and push a
/// window of 64 B isends on their own tag. Returns the raw finish time
/// (the caller subtracts the settle offset), or kCap if the world failed
/// to complete within the cap.
sim::Time makespan(nm::LockMode lock, int endpoints, int rx_queues,
                   int threads) {
  nm::ClusterConfig cfg;
  cfg.topology = mach::CacheTopology::dual_quad_core();
  cfg.nm.lock = lock;
  cfg.endpoints = endpoints;
  cfg.rx_queues = rx_queues;
  nm::Cluster world(cfg);
  // Senders hold off until every receiver has posted its window; scaled
  // with the thread count because posting kMsgs irecvs per thread
  // timeshares the node's eight cores.
  const sim::Time settle = sim::microseconds(threads * 5);
  // Makespan = virtual time the last thread exits, recorded by the threads
  // themselves: run_until() advances the clock to its deadline even after
  // the world drains, so engine().now() afterwards is always kCap.
  sim::Time finished = 0;
  for (int t = 0; t < threads; ++t) {
    const nm::Tag tag = static_cast<nm::Tag>(t);
    world.spawn(0, [&world, &finished, tag, t, settle] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      world.sched(0).sleep_for(settle);
      std::vector<std::uint8_t> m(64, static_cast<std::uint8_t>(t));
      std::deque<nm::Request*> win;
      for (int i = 0; i < kMsgs; ++i) {
        win.push_back(c.isend(g, tag, m.data(), m.size()));
      }
      while (!win.empty()) {
        c.wait(win.front());
        c.release(win.front());
        win.pop_front();
      }
      finished = std::max(finished, world.engine().now());
    });
    world.spawn(1, [&world, &finished, tag] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::vector<std::uint8_t>> bufs(
          kMsgs, std::vector<std::uint8_t>(64));
      std::vector<nm::Request*> reqs;
      reqs.reserve(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        reqs.push_back(c.irecv(g, tag, bufs[i].data(), bufs[i].size()));
      }
      for (auto* r : reqs) {
        c.wait(r);
        c.release(r);
      }
      finished = std::max(finished, world.engine().now());
    });
  }
  world.engine().run_until(kCap);
  const bool done = world.sched(0).live_threads() == 0 &&
                    world.sched(1).live_threads() == 0;
  return done ? finished : kCap;
}

}  // namespace

int main() {
  const sim::Time settle8 = sim::microseconds(kThreads * 5);
  const sim::Time coarse =
      makespan(nm::LockMode::kCoarse, 1, 1, kThreads) - settle8;
  const sim::Time fine = makespan(nm::LockMode::kFine, 1, 1, kThreads) - settle8;
  const sim::Time per_ep =
      makespan(nm::LockMode::kFine, kThreads, 1, kThreads) - settle8;
  const double msgs = static_cast<double>(kThreads) * kMsgs;
  auto rate = [msgs](sim::Time t) {
    return msgs / (static_cast<double>(t) * 1e-9);
  };
  std::printf("concurrent senders, %d threads x %d msgs (virtual time):\n",
              kThreads, kMsgs);
  std::printf("  coarse        %8.1f us  %10.0f msgs/s\n",
              static_cast<double>(coarse) / 1e3, rate(coarse));
  std::printf("  fine          %8.1f us  %10.0f msgs/s\n",
              static_cast<double>(fine) / 1e3, rate(fine));
  std::printf("  %d endpoints   %8.1f us  %10.0f msgs/s\n", kThreads,
              static_cast<double>(per_ep) / 1e3, rate(per_ep));
  if (fine + settle8 >= kCap || per_ep + settle8 >= kCap) {
    std::fprintf(stderr,
                 "FAIL: run did not complete within the %lld ns virtual cap "
                 "(fine=%lld per_ep=%lld)\n",
                 static_cast<long long>(kCap), static_cast<long long>(fine),
                 static_cast<long long>(per_ep));
    return 1;
  }
  if (per_ep >= fine) {
    std::fprintf(stderr,
                 "FAIL: per-endpoint makespan (%lld ns) not strictly below "
                 "fine locking (%lld ns) at %d threads\n",
                 static_cast<long long>(per_ep),
                 static_cast<long long>(fine), kThreads);
    return 1;
  }

  const sim::Time settle16 = sim::microseconds(kRailThreads * 5);
  const sim::Time single_q =
      makespan(nm::LockMode::kFine, kRailThreads, 1, kRailThreads) - settle16;
  const sim::Time multi_q =
      makespan(nm::LockMode::kFine, kRailThreads, kRailThreads, kRailThreads) -
      settle16;
  std::printf(
      "pre-posted rail drain, %d threads x %d msgs (virtual time):\n",
      kRailThreads, kMsgs);
  std::printf("  1 rx queue    %8.1f us\n",
              static_cast<double>(single_q) / 1e3);
  std::printf("  %d rx queues  %8.1f us  (%.2fx)\n", kRailThreads,
              static_cast<double>(multi_q) / 1e3,
              static_cast<double>(single_q) / static_cast<double>(multi_q));
  if (single_q + settle16 >= kCap || multi_q + settle16 >= kCap) {
    std::fprintf(stderr,
                 "FAIL: rail run did not complete within the %lld ns virtual "
                 "cap (single_q=%lld multi_q=%lld)\n",
                 static_cast<long long>(kCap),
                 static_cast<long long>(single_q),
                 static_cast<long long>(multi_q));
    return 1;
  }
  if (multi_q * 3 > single_q * 2) {
    std::fprintf(stderr,
                 "FAIL: multi-queue drain makespan (%lld ns) not >= 1.5x "
                 "better than the single queue (%lld ns) at %d threads\n",
                 static_cast<long long>(multi_q),
                 static_cast<long long>(single_q), kRailThreads);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
