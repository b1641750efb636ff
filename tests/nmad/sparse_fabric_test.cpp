// pm2sim -- sparse fabric and lazy gates: wide worlds must construct in
// O(active pairs), not O(nodes^2). A 128-node cluster allocates no per-pair
// state up front: the fabric keeps none at all, and gates materialize on
// first use.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

TEST(SparseFabric, WideWorldConstructsInActiveLinkSpace) {
  ClusterConfig cfg;
  cfg.nodes = 128;
  Cluster world(cfg);

  // Construction materializes nothing pairwise: a full mesh would be
  // 128*127 gates.
  for (int n = 0; n < cfg.nodes; ++n) {
    ASSERT_EQ(world.core(n).gate_count(), 0) << "node " << n;
  }

  // Sparse traffic: 5 disjoint pairs (i, i + 64) pingpong once.
  constexpr int kPairs = 5;
  for (int i = 0; i < kPairs; ++i) {
    const int a = i, b = i + 64;
    world.spawn(a, [&world, a, b] {
      Core& c = world.core(a);
      std::uint32_t v = 0x50000000u + static_cast<std::uint32_t>(a), r = 0;
      c.send(world.gate(a, b), 1, &v, sizeof(v));
      c.recv(world.gate(a, b), 2, &r, sizeof(r));
      EXPECT_EQ(r, v + 1);
    });
    world.spawn(b, [&world, a, b] {
      Core& c = world.core(b);
      std::uint32_t v = 0;
      c.recv(world.gate(b, a), 1, &v, sizeof(v));
      ++v;
      c.send(world.gate(b, a), 2, &v, sizeof(v));
    });
  }
  world.run();

  // Gates exist only where traffic flowed: one peer per participant,
  // none anywhere else -- O(active), not O(n^2).
  for (int i = 0; i < kPairs; ++i) {
    EXPECT_EQ(world.core(i).gate_count(), 1);
    EXPECT_EQ(world.core(i + 64).gate_count(), 1);
  }
  for (int n = kPairs; n < 64; ++n) {
    ASSERT_EQ(world.core(n).gate_count(), 0) << "node " << n;
  }
  for (int n = 64 + kPairs; n < cfg.nodes; ++n) {
    ASSERT_EQ(world.core(n).gate_count(), 0) << "node " << n;
  }
}

}  // namespace
}  // namespace pm2::nm
