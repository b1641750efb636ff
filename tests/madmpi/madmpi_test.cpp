#include "madmpi/madmpi.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace pm2::madmpi {
namespace {

nm::ClusterConfig cluster_config(int nodes) {
  nm::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.nm.lock = nm::LockMode::kFine;
  return cfg;
}

TEST(MadMpi, RankAndSize) {
  nm::Cluster world(cluster_config(3));
  std::vector<int> ranks;
  launch(world, [&](Comm comm) {
    EXPECT_EQ(comm.size(), 3);
    ranks.push_back(comm.rank());
  });
  world.run();
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
}

TEST(MadMpi, BlockingSendRecv) {
  nm::Cluster world(cluster_config(2));
  launch(world, [&](Comm comm) {
    if (comm.rank() == 0) {
      const int value = 12345;
      comm.send(1, 7, &value, sizeof(value));
    } else {
      int got = 0;
      const std::size_t n = comm.recv(0, 7, &got, sizeof(got));
      EXPECT_EQ(n, sizeof(got));
      EXPECT_EQ(got, 12345);
    }
  });
  world.run();
}

TEST(MadMpi, NonblockingWaitAll) {
  nm::Cluster world(cluster_config(2));
  launch(world, [&](Comm comm) {
    std::vector<int> data(8);
    std::vector<int> got(8);
    if (comm.rank() == 0) {
      std::iota(data.begin(), data.end(), 100);
      std::vector<nm::Request*> reqs;
      for (int k = 0; k < 8; ++k) {
        reqs.push_back(comm.isend(1, static_cast<Tag>(k), &data[static_cast<size_t>(k)],
                                  sizeof(int)));
      }
      comm.wait_all(reqs);
    } else {
      std::vector<nm::Request*> reqs;
      for (int k = 0; k < 8; ++k) {
        reqs.push_back(comm.irecv(0, static_cast<Tag>(k), &got[static_cast<size_t>(k)],
                                  sizeof(int)));
      }
      comm.wait_all(reqs);
      for (int k = 0; k < 8; ++k) EXPECT_EQ(got[static_cast<size_t>(k)], 100 + k);
    }
  });
  world.run();
}

TEST(MadMpi, SendrecvExchangesWithoutDeadlock) {
  nm::Cluster world(cluster_config(2));
  launch(world, [&](Comm comm) {
    // Both ranks exchange 64 KiB (rendezvous territory) simultaneously.
    std::vector<std::uint8_t> out(65536, static_cast<std::uint8_t>(comm.rank() + 1));
    std::vector<std::uint8_t> in(65536);
    const int peer = 1 - comm.rank();
    const std::size_t n = comm.sendrecv(peer, 5, out.data(), out.size(), peer,
                                        5, in.data(), in.size());
    EXPECT_EQ(n, in.size());
    EXPECT_EQ(in[0], static_cast<std::uint8_t>(peer + 1));
    EXPECT_EQ(in[65535], static_cast<std::uint8_t>(peer + 1));
  });
  world.run();
}

class MadMpiSizes : public ::testing::TestWithParam<int> {};

TEST_P(MadMpiSizes, BarrierSynchronizes) {
  const int nodes = GetParam();
  nm::Cluster world(cluster_config(nodes));
  int phase_counter = 0;
  bool order_ok = true;
  launch(world, [&](Comm comm) {
    auto& sched = world.sched(comm.rank());
    // Stagger arrivals; after the barrier everyone must observe that all
    // ranks incremented the counter.
    sched.work(sim::microseconds(comm.rank() * 10 + 1));
    ++phase_counter;
    comm.barrier();
    if (phase_counter != nodes) order_ok = false;
  });
  world.run();
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(phase_counter, nodes);
}

TEST_P(MadMpiSizes, BcastFromEveryRoot) {
  const int nodes = GetParam();
  for (int root = 0; root < nodes; ++root) {
    nm::Cluster world(cluster_config(nodes));
    int wrong = 0;
    launch(world, [&, root](Comm comm) {
      std::vector<std::uint32_t> buf(16, 0);
      if (comm.rank() == root) {
        for (std::uint32_t i = 0; i < 16; ++i) buf[i] = 0xABC0 + i;
      }
      comm.bcast(root, buf.data(), buf.size() * sizeof(std::uint32_t));
      for (std::uint32_t i = 0; i < 16; ++i) {
        if (buf[i] != 0xABC0 + i) ++wrong;
      }
    });
    world.run();
    EXPECT_EQ(wrong, 0) << "root " << root;
  }
}

TEST_P(MadMpiSizes, ReduceSumsToRoot) {
  const int nodes = GetParam();
  nm::Cluster world(cluster_config(nodes));
  double result[4] = {0, 0, 0, 0};
  launch(world, [&](Comm comm) {
    double vals[4];
    for (int i = 0; i < 4; ++i) {
      vals[i] = comm.rank() * 10.0 + i;
    }
    comm.reduce_sum(0, vals, 4);
    if (comm.rank() == 0) {
      for (int i = 0; i < 4; ++i) result[i] = vals[i];
    }
  });
  world.run();
  const double ranksum = nodes * (nodes - 1) / 2.0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result[i], ranksum * 10.0 + i * nodes) << i;
  }
}

TEST_P(MadMpiSizes, AllreduceGivesEveryoneTheSum) {
  const int nodes = GetParam();
  nm::Cluster world(cluster_config(nodes));
  int wrong = 0;
  launch(world, [&](Comm comm) {
    double v = comm.rank() + 1.0;
    comm.allreduce_sum(&v, 1);
    const double expect = nodes * (nodes + 1) / 2.0;
    if (v != expect) ++wrong;
  });
  world.run();
  EXPECT_EQ(wrong, 0);
}

TEST_P(MadMpiSizes, GatherCollectsInRankOrder) {
  const int nodes = GetParam();
  nm::Cluster world(cluster_config(nodes));
  std::vector<std::uint32_t> gathered(static_cast<std::size_t>(nodes), 0);
  launch(world, [&](Comm comm) {
    const std::uint32_t mine = 0x1000u + static_cast<std::uint32_t>(comm.rank());
    comm.gather(0, &mine, sizeof(mine),
                comm.rank() == 0 ? gathered.data() : nullptr);
  });
  world.run();
  for (int r = 0; r < nodes; ++r) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(r)], 0x1000u + static_cast<std::uint32_t>(r));
  }
}

TEST_P(MadMpiSizes, RingAllreduceMatchesBinomial) {
  const int nodes = GetParam();
  if (nodes < 3) GTEST_SKIP() << "ring needs > 2 ranks to differ";
  nm::Cluster world(cluster_config(nodes));
  int wrong = 0;
  launch(world, [&](Comm comm) {
    // Vector long enough to exercise uneven block splits.
    const std::size_t n = 257;
    std::vector<double> ring(n), tree(n);
    for (std::size_t i = 0; i < n; ++i) {
      ring[i] = tree[i] = comm.rank() * 1000.0 + static_cast<double>(i);
    }
    comm.allreduce_sum_ring(ring.data(), n);
    comm.allreduce_sum_binomial(tree.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (ring[i] != tree[i]) ++wrong;
    }
  });
  world.run();
  EXPECT_EQ(wrong, 0);
}

TEST(MadMpi, LargeAllreduceUsesRingAndIsCorrect) {
  nm::Cluster world(cluster_config(4));
  int wrong = 0;
  launch(world, [&](Comm comm) {
    const std::size_t n = 8192;  // above the ring threshold
    std::vector<double> v(n, static_cast<double>(comm.rank() + 1));
    comm.allreduce_sum(v.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i] != 10.0) ++wrong;  // 1+2+3+4
    }
  });
  world.run();
  EXPECT_EQ(wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(Worlds, MadMpiSizes, ::testing::Values(2, 3, 4, 5, 8));

TEST(MadMpi, WtimeAdvances) {
  nm::Cluster world(cluster_config(2));
  double elapsed = 0;
  launch(world, [&](Comm comm) {
    if (comm.rank() == 0) {
      const double t0 = comm.wtime();
      world.sched(0).work(sim::milliseconds(3));
      elapsed = comm.wtime() - t0;
    }
  });
  world.run();
  EXPECT_NEAR(elapsed, 3e-3, 1e-4);
}

}  // namespace
}  // namespace pm2::madmpi
