// Request lifecycle, error paths, statistics, cluster wiring, and
// thread-multiple (concurrent threads in one library instance) behaviour.
#include <gtest/gtest.h>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "sync/barrier.hpp"

namespace pm2::nm {
namespace {

TEST(RequestLifecycle, RequestsAreRecycled) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    std::uint8_t byte = 1;
    std::set<nm::Request*> seen;
    for (int i = 0; i < 10; ++i) {
      nm::Request* r = c.isend(world.gate(0, 1), 1, &byte, 1);
      seen.insert(r);
      c.wait(r);
      c.release(r);
    }
    // The free list recycles: far fewer distinct objects than operations.
    EXPECT_LE(seen.size(), 2u);
  });
  world.spawn(1, [&world] {
    std::uint8_t b = 0;
    for (int i = 0; i < 10; ++i) world.core(1).recv(world.gate(1, 0), 1, &b, 1);
  });
  world.run();
}

TEST(RequestLifecycle, TestReportsCompletionWithoutBlocking) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    std::uint8_t buf = 0;
    nm::Request* r = c.irecv(world.gate(0, 1), 1, &buf, 1);
    EXPECT_FALSE(c.test(r));  // nothing sent yet
    // Poll until completion via test() only.
    auto& ctx = mth::ExecContext::current();
    while (!c.test(r)) c.progress(ctx);
    EXPECT_EQ(buf, 42);
    c.release(r);
  });
  world.spawn(1, [&world] {
    world.sched(1).work(sim::microseconds(10));
    std::uint8_t v = 42;
    world.core(1).send(world.gate(1, 0), 1, &v, 1);
  });
  world.run();
}

TEST(RequestLifecycle, ReceivedLengthReflectsShorterMessage) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    std::uint8_t big[64];
    const std::size_t n = world.core(0).recv(world.gate(0, 1), 1, big, 64);
    EXPECT_EQ(n, 5u);
  });
  world.spawn(1, [&world] {
    const char msg[5] = {'h', 'e', 'l', 'l', 'o'};
    world.core(1).send(world.gate(1, 0), 1, msg, 5);
  });
  world.run();
}

TEST(ErrorPaths, EagerOverflowThrows) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    std::uint8_t tiny[4];
    EXPECT_THROW(world.core(0).recv(world.gate(0, 1), 1, tiny, 4),
                 std::length_error);
  });
  world.spawn(1, [&world] {
    std::uint8_t big[100] = {};
    world.core(1).isend(world.gate(1, 0), 1, big, 100);
    world.sched(1).work(sim::microseconds(50));
  });
  world.run();
}

TEST(ErrorPaths, ConnectRequiresOnePortPerRail) {
  sim::Engine engine;
  mach::Machine machine(engine, "n", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  mth::Scheduler sched(machine);
  net::Fabric fabric(engine, "f");
  net::Nic nic(machine, fabric, net::NicParams::myri10g());
  Core core(sched, Config{});
  core.add_rail(nic);
  EXPECT_THROW(core.connect(1, {0, 1}), std::invalid_argument);  // 2 ports, 1 rail
  EXPECT_NE(core.connect(1, {0}), nullptr);
}

TEST(ErrorPaths, TooManyRailsRejected) {
  sim::Engine engine;
  mach::Machine machine(engine, "n", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  mth::Scheduler sched(machine);
  net::Fabric fabric(engine, "f");
  std::vector<std::unique_ptr<net::Nic>> nics;
  Core core(sched, Config{});
  for (int i = 0; i < 4; ++i) {
    nics.push_back(std::make_unique<net::Nic>(machine, fabric,
                                              net::NicParams::myri10g()));
    core.add_rail(*nics.back());
  }
  nics.push_back(
      std::make_unique<net::Nic>(machine, fabric, net::NicParams::myri10g()));
  EXPECT_THROW(core.add_rail(*nics.back()), std::length_error);
}

TEST(ErrorPaths, BadClusterConfigs) {
  nm::ClusterConfig none;
  none.nodes = 0;
  EXPECT_THROW(nm::Cluster{none}, std::invalid_argument);
  nm::ClusterConfig norails;
  norails.rails.clear();
  EXPECT_THROW(nm::Cluster{norails}, std::invalid_argument);
}

TEST(Stats, CountersTrackTraffic) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    std::uint8_t b[16] = {};
    for (int i = 0; i < 5; ++i) c.send(world.gate(0, 1), 1, b, 16);
  });
  world.spawn(1, [&world] {
    std::uint8_t b[16];
    for (int i = 0; i < 5; ++i) world.core(1).recv(world.gate(1, 0), 1, b, 16);
  });
  world.run();
  // The traffic counters count with the registry disabled too.
  const auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter_value("nmad", "node0", "sends"), 5u);
  EXPECT_EQ(reg.counter_value("nmad", "node1", "recvs"), 5u);
  EXPECT_GE(reg.counter_value("nmad", "node1", "packets_rx").value_or(0), 1u);
  EXPECT_GE(reg.counter_value("nmad", "node1", "chunks_rx").value_or(0), 5u);
  // Receiver polls.
  EXPECT_GT(reg.counter_value("nmad", "node1", "progress_passes").value_or(0),
            0u);
}

TEST(ClusterWiring, FullMeshGates) {
  nm::ClusterConfig cfg;
  cfg.nodes = 4;
  nm::Cluster world(cfg);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) {
        EXPECT_EQ(world.gate(a, b), nullptr);
      } else {
        ASSERT_NE(world.gate(a, b), nullptr);
        EXPECT_EQ(world.gate(a, b)->peer_node(), b);
      }
    }
  }
}

TEST(ClusterWiring, AllPairsCanCommunicate) {
  nm::ClusterConfig cfg;
  cfg.nodes = 4;
  nm::Cluster world(cfg);
  int received = 0;
  for (int node = 0; node < 4; ++node) {
    world.spawn(node, [&world, node, &received] {
      nm::Core& c = world.core(node);
      // Send to every peer, then receive from every peer.
      std::uint32_t mine = 0x100u + static_cast<std::uint32_t>(node);
      std::vector<nm::Request*> reqs;
      for (int peer = 0; peer < 4; ++peer) {
        if (peer == node) continue;
        reqs.push_back(c.isend(world.gate(node, peer),
                               static_cast<Tag>(node), &mine, sizeof(mine)));
      }
      for (int peer = 0; peer < 4; ++peer) {
        if (peer == node) continue;
        std::uint32_t got = 0;
        c.recv(world.gate(node, peer), static_cast<Tag>(peer), &got,
               sizeof(got));
        EXPECT_EQ(got, 0x100u + static_cast<std::uint32_t>(peer));
        ++received;
      }
      for (auto* r : reqs) {
        c.wait(r);
        c.release(r);
      }
    });
  }
  world.run();
  EXPECT_EQ(received, 12);
}

TEST(ThreadMultiple, ConcurrentThreadsShareOneCore) {
  // Four threads of one node all talk through the same nm::Core with fine
  // locking -- the MPI_THREAD_MULTIPLE scenario of the paper's intro.
  nm::ClusterConfig cfg;
  cfg.nm.lock = LockMode::kFine;
  nm::Cluster world(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  int ok = 0;
  for (int t = 0; t < kThreads; ++t) {
    world.spawn(0, [&world, t, &ok] {
      nm::Core& c = world.core(0);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint32_t v =
            static_cast<std::uint32_t>(t) << 16 | static_cast<std::uint32_t>(i);
        std::uint32_t echo = 0;
        c.send(world.gate(0, 1), static_cast<Tag>(t), &v, sizeof(v));
        c.recv(world.gate(0, 1), 100 + static_cast<Tag>(t), &echo, sizeof(echo));
        if (echo == v + 1) ++ok;
      }
    }, "client" + std::to_string(t), t);
  }
  for (int t = 0; t < kThreads; ++t) {
    world.spawn(1, [&world, t] {
      nm::Core& c = world.core(1);
      for (int i = 0; i < kPerThread; ++i) {
        std::uint32_t v = 0;
        c.recv(world.gate(1, 0), static_cast<Tag>(t), &v, sizeof(v));
        const std::uint32_t reply = v + 1;
        c.send(world.gate(1, 0), 100 + static_cast<Tag>(t), &reply,
               sizeof(reply));
      }
    }, "server" + std::to_string(t), t);
  }
  world.run();
  EXPECT_EQ(ok, kThreads * kPerThread);
}

TEST(ThreadMultiple, CoarseModeAlsoCorrectJustSlower) {
  auto run_with = [](LockMode lock) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = lock;
    nm::Cluster world(cfg);
    int ok = 0;
    for (int t = 0; t < 2; ++t) {
      world.spawn(0, [&world, t, &ok] {
        nm::Core& c = world.core(0);
        std::uint8_t b[32] = {};
        for (int i = 0; i < 8; ++i) {
          c.send(world.gate(0, 1), static_cast<Tag>(t), b, 32);
          c.recv(world.gate(0, 1), 10 + static_cast<Tag>(t), b, 32);
          ++ok;
        }
      }, "c" + std::to_string(t), t);
      world.spawn(1, [&world, t] {
        nm::Core& c = world.core(1);
        std::uint8_t b[32];
        for (int i = 0; i < 8; ++i) {
          c.recv(world.gate(1, 0), static_cast<Tag>(t), b, 32);
          c.send(world.gate(1, 0), 10 + static_cast<Tag>(t), b, 32);
        }
      }, "s" + std::to_string(t), t);
    }
    world.run();
    return std::pair(ok, world.engine().now());
  };
  const auto fine = run_with(LockMode::kFine);
  const auto coarse = run_with(LockMode::kCoarse);
  EXPECT_EQ(fine.first, 16);
  EXPECT_EQ(coarse.first, 16);
  EXPECT_GT(coarse.second, fine.second);  // serialization costs time
}

TEST(ZeroLength, EmptyMessagesCompleteBothSides) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    nm::Request* sr = c.isend(world.gate(0, 1), 1, nullptr, 0);
    c.wait(sr);
    c.release(sr);
  });
  world.spawn(1, [&world] {
    nm::Core& c = world.core(1);
    EXPECT_EQ(c.recv(world.gate(1, 0), 1, nullptr, 0), 0u);
  });
  world.run();
}

}  // namespace
}  // namespace pm2::nm
