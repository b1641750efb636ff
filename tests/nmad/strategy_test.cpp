// Unit tests of the optimization-layer strategies, driven through a real
// cluster so submission bookkeeping (inflight chunks, completion) is
// exercised end to end, plus packet-level checks via NIC stats.
#include <gtest/gtest.h>

#include <numeric>

#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

nm::ClusterConfig config_with(StrategyKind strategy, int rails = 1) {
  nm::ClusterConfig cfg;
  cfg.nm.strategy = strategy;
  cfg.rails.clear();
  for (int i = 0; i < rails; ++i) cfg.rails.push_back(net::NicParams::myri10g());
  return cfg;
}

/// Send @p count messages of @p size in one burst, then deliver them all;
/// returns the number of packets the sender's rail 0 NIC emitted.
std::uint64_t burst_packets(StrategyKind strategy, int count,
                            std::size_t size) {
  nm::Cluster world(config_with(strategy));
  world.spawn(0, [&world, count, size] {
    nm::Core& c = world.core(0);
    nm::Gate* g = world.gate(0, 1);
    std::vector<std::uint8_t> data(size, 0x33);
    std::vector<nm::Request*> reqs;
    for (int i = 0; i < count; ++i) {
      reqs.push_back(c.isend(g, 7, data.data(), data.size()));
    }
    for (auto* r : reqs) {
      c.wait(r);
      c.release(r);
    }
  });
  world.spawn(1, [&world, count, size] {
    nm::Core& c = world.core(1);
    nm::Gate* g = world.gate(1, 0);
    std::vector<std::uint8_t> buf(size);
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(c.recv(g, 7, buf.data(), buf.size()), size);
    }
  });
  world.run();
  return world.nic(0, 0).packets_sent();
}

TEST(Strategy, DefaultSendsOnePacketPerMessage) {
  EXPECT_EQ(burst_packets(StrategyKind::kDefault, 8, 64), 8u);
}

TEST(Strategy, AggregCoalescesBurstsIntoFewerPackets) {
  // 8 x 64 B messages queued while the NIC is busy with the first packet
  // get coalesced; the packet count must drop well below 8.
  const std::uint64_t aggreg = burst_packets(StrategyKind::kAggreg, 8, 64);
  EXPECT_LT(aggreg, 8u);
  EXPECT_GE(aggreg, 1u);
}

TEST(Strategy, AggregRespectsBudget) {
  // Messages bigger than the 4 KiB aggregation budget never share a packet.
  const std::uint64_t packets = burst_packets(StrategyKind::kAggreg, 5, 8000);
  EXPECT_EQ(packets, 5u);
}

TEST(Strategy, AggregatedBurstIsFasterThanDefault) {
  auto burst_time = [&](StrategyKind strategy) {
    nm::Cluster world(config_with(strategy));
    sim::Time done = 0;
    world.spawn(0, [&world] {
      nm::Core& c = world.core(0);
      nm::Gate* g = world.gate(0, 1);
      std::vector<std::uint8_t> data(64, 1);
      std::vector<nm::Request*> reqs;
      for (int i = 0; i < 16; ++i) {
        reqs.push_back(c.isend(g, 7, data.data(), data.size()));
      }
      for (auto* r : reqs) {
        c.wait(r);
        c.release(r);
      }
    });
    world.spawn(1, [&world, &done] {
      nm::Core& c = world.core(1);
      nm::Gate* g = world.gate(1, 0);
      std::vector<std::uint8_t> buf(64);
      for (int i = 0; i < 16; ++i) c.recv(g, 7, buf.data(), buf.size());
      done = world.engine().now();
    });
    world.run();
    return done;
  };
  // Aggregation amortizes per-packet overheads (headers ride together):
  // the whole burst completes sooner.
  EXPECT_LT(burst_time(StrategyKind::kAggreg),
            burst_time(StrategyKind::kDefault));
}

TEST(Strategy, SplitStripesRendezvousAcrossRails) {
  nm::Cluster world(config_with(StrategyKind::kSplit, 2));
  const std::size_t kBig = 1 << 20;
  world.spawn(0, [&world, kBig] {
    nm::Core& c = world.core(0);
    std::vector<std::uint8_t> data(kBig);
    for (std::size_t i = 0; i < kBig; ++i) data[i] = static_cast<std::uint8_t>(i);
    c.send(world.gate(0, 1), 9, data.data(), data.size());
  });
  world.spawn(1, [&world, kBig] {
    nm::Core& c = world.core(1);
    std::vector<std::uint8_t> buf(kBig, 0);
    EXPECT_EQ(c.recv(world.gate(1, 0), 9, buf.data(), buf.size()), kBig);
    for (std::size_t i = 0; i < kBig; i += 4099) {
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i)) << i;
    }
  });
  world.run();
  // Both rails carried a meaningful share of the bulk data.
  EXPECT_GT(world.nic(0, 0).bytes_sent(), kBig / 4);
  EXPECT_GT(world.nic(0, 1).bytes_sent(), kBig / 4);
  EXPECT_GE(world.nic(0, 0).bytes_sent() + world.nic(0, 1).bytes_sent(), kBig);
}

TEST(Strategy, SplitLeavesSmallMessagesOnRailZero) {
  nm::Cluster world(config_with(StrategyKind::kSplit, 2));
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    std::vector<std::uint8_t> data(256, 5);
    for (int i = 0; i < 10; ++i) {
      c.send(world.gate(0, 1), 3, data.data(), data.size());
    }
  });
  world.spawn(1, [&world] {
    nm::Core& c = world.core(1);
    std::vector<std::uint8_t> buf(256);
    for (int i = 0; i < 10; ++i) c.recv(world.gate(1, 0), 3, buf.data(), 256);
  });
  world.run();
  EXPECT_EQ(world.nic(0, 1).packets_sent(), 0u);  // rail 1 untouched
  EXPECT_GT(world.nic(0, 0).packets_sent(), 0u);
}

TEST(Strategy, MultirailFasterThanSingleRailForBulk) {
  auto transfer_time = [](int rails) {
    nm::ClusterConfig cfg = config_with(StrategyKind::kSplit, rails);
    nm::Cluster world(cfg);
    sim::Time done = 0;
    const std::size_t kBig = 2 << 20;
    world.spawn(0, [&world, kBig] {
      static std::vector<std::uint8_t> data(kBig, 0x42);
      world.core(0).send(world.gate(0, 1), 1, data.data(), data.size());
    });
    world.spawn(1, [&world, &done, kBig] {
      static std::vector<std::uint8_t> buf(kBig);
      world.core(1).recv(world.gate(1, 0), 1, buf.data(), buf.size());
      done = world.engine().now();
    });
    world.run();
    return done;
  };
  const sim::Time single = transfer_time(1);
  const sim::Time dual = transfer_time(2);
  EXPECT_LT(dual, single);
  // Two equal rails: close to half the time (within 25%).
  EXPECT_LT(static_cast<double>(dual), 0.75 * static_cast<double>(single));
}

}  // namespace
}  // namespace pm2::nm
