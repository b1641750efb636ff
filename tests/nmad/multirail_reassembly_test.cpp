// Multi-rail rendezvous reassembly: when the split strategy stripes one
// bulk message across rails of different speeds, the chunks' completions
// arrive out of order -- the slow rail's low-offset chunk lands after the
// fast rail's high-offset chunk. Every byte must still land exactly once
// at its message offset, for posted receives and the unexpected-then-
// matched handshake.
#include <gtest/gtest.h>

#include <vector>

#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 37 + salt);
  }
  return v;
}

/// Two rails with a 16x bandwidth gap: rail 0 (where the first, low-offset
/// split chunk goes) is much slower than rail 1, so completions reorder.
ClusterConfig split_config() {
  ClusterConfig cfg;
  net::NicParams slow = net::NicParams::myri10g();
  slow.name = "slow";
  slow.wire_ns_per_byte = 12.8;  // ~0.6 Gb/s
  net::NicParams fast = net::NicParams::myri10g();
  fast.name = "fast";
  fast.wire_ns_per_byte = 0.8;  // 10 Gb/s
  cfg.rails = {slow, fast};
  cfg.nm.strategy = StrategyKind::kSplit;
  return cfg;
}

constexpr std::size_t kBig = 192 * 1024;  // far above the 32 KiB threshold

TEST(MultirailReassembly, OutOfOrderChunksLandExactlyOnce) {
  ClusterConfig cfg = split_config();
  Cluster world(cfg);
  world.spawn(1, [&world] {
    // Sentinel prefill: any byte the reassembly misses stays 0xEE.
    std::vector<std::uint8_t> buf(kBig, 0xEE);
    EXPECT_EQ(world.core(1).recv(world.gate(1, 0), 6, buf.data(), buf.size()),
              kBig);
    EXPECT_EQ(buf, pattern(kBig, 3));
  });
  world.spawn(0, [&world] {
    world.sched(0).work(sim::microseconds(20));  // receiver posts first
    static auto data = pattern(kBig, 3);
    world.core(0).send(world.gate(0, 1), 6, data.data(), data.size());
  });
  world.run();

  // Both rails carried part of the message.
  EXPECT_GT(world.core(0).rail(0).packets_posted(), 0u);
  EXPECT_GT(world.core(0).rail(1).packets_posted(), 0u);
}

TEST(MultirailReassembly, UnexpectedThenMatchedRendezvous) {
  // The RTS sits unexpected; the late irecv adopts it, grants the window,
  // and the striped data still reassembles exactly.
  ClusterConfig cfg = split_config();
  Cluster world(cfg);
  world.spawn(0, [&world] {
    static auto data = pattern(kBig, 9);
    world.core(0).send(world.gate(0, 1), 8, data.data(), data.size());
  });
  world.spawn(1, [&world] {
    world.sched(1).work(sim::microseconds(200));  // RTS arrives unexpected
    std::vector<std::uint8_t> buf(kBig, 0xEE);
    EXPECT_EQ(world.core(1).recv(world.gate(1, 0), 8, buf.data(), buf.size()),
              kBig);
    EXPECT_EQ(buf, pattern(kBig, 9));
  });
  world.run();
}

}  // namespace
}  // namespace pm2::nm
