// Property tests: matching and ordering invariants of the communication
// core, swept across locking modes, strategies and seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "simcore/random.hpp"

namespace pm2::nm {
namespace {

TEST(Ordering, SameTagMessagesArriveInSendOrder) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  constexpr int kCount = 50;
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      c.send(world.gate(0, 1), 7, &i, sizeof(i));
    }
  });
  world.spawn(1, [&world] {
    nm::Core& c = world.core(1);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      std::uint32_t got = 0;
      c.recv(world.gate(1, 0), 7, &got, sizeof(got));
      EXPECT_EQ(got, i);
    }
  });
  world.run();
}

TEST(Ordering, UnexpectedMessagesAdoptedInSendOrder) {
  // All messages arrive before any receive is posted: adoption must still
  // follow send order (lowest msg_seq first).
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  constexpr int kCount = 20;
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      c.send(world.gate(0, 1), 7, &i, sizeof(i));
    }
  });
  world.spawn(1, [&world] {
    world.sched(1).work(sim::microseconds(200));  // let everything land
    nm::Core& c = world.core(1);
    for (std::uint32_t i = 0; i < kCount; ++i) {
      std::uint32_t got = 0;
      c.recv(world.gate(1, 0), 7, &got, sizeof(got));
      EXPECT_EQ(got, i) << "unexpected adoption out of order";
    }
  });
  world.run();
  // Stats are registry counters now; the canonical read is the lookup.
  EXPECT_GT(obs::MetricsRegistry::global()
                .counter_value("nmad", "node1", "unexpected_chunks")
                .value_or(0),
            0u);
}

TEST(Ordering, DifferentTagsMatchIndependently) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    const std::uint32_t a = 0xAAAA, b = 0xBBBB;
    c.send(world.gate(0, 1), 1, &a, sizeof(a));
    c.send(world.gate(0, 1), 2, &b, sizeof(b));
  });
  world.spawn(1, [&world] {
    nm::Core& c = world.core(1);
    // Receive tag 2 FIRST, although it was sent second.
    std::uint32_t got2 = 0, got1 = 0;
    c.recv(world.gate(1, 0), 2, &got2, sizeof(got2));
    c.recv(world.gate(1, 0), 1, &got1, sizeof(got1));
    EXPECT_EQ(got2, 0xBBBBu);
    EXPECT_EQ(got1, 0xAAAAu);
  });
  world.run();
}

TEST(Ordering, GatesIsolateFlows) {
  // Same tags on different gates must not cross-match.
  nm::ClusterConfig cfg;
  cfg.nodes = 3;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    nm::Core& c = world.core(0);
    const std::uint32_t to1 = 111, to2 = 222;
    c.send(world.gate(0, 1), 9, &to1, sizeof(to1));
    c.send(world.gate(0, 2), 9, &to2, sizeof(to2));
  });
  world.spawn(1, [&world] {
    std::uint32_t got = 0;
    world.core(1).recv(world.gate(1, 0), 9, &got, sizeof(got));
    EXPECT_EQ(got, 111u);
  });
  world.spawn(2, [&world] {
    std::uint32_t got = 0;
    world.core(2).recv(world.gate(2, 0), 9, &got, sizeof(got));
    EXPECT_EQ(got, 222u);
  });
  world.run();
}

struct SweepParam {
  LockMode lock;
  StrategyKind strategy;
  std::uint64_t seed;
};

class RandomTrafficSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomTrafficSweep, MixedSizesAndTagsDeliverIntact) {
  const SweepParam p = GetParam();
  nm::ClusterConfig cfg;
  cfg.nm.lock = p.lock;
  cfg.nm.strategy = p.strategy;
  nm::Cluster world(cfg);

  // Deterministic random schedule shared by both sides.
  constexpr int kMessages = 40;
  sim::Rng rng(p.seed);
  struct Msg {
    Tag tag;
    std::size_t size;
    std::uint8_t fill;
  };
  std::vector<Msg> plan;
  for (int i = 0; i < kMessages; ++i) {
    const Tag tag = static_cast<Tag>(rng.uniform_int(0, 3));
    // Sizes spanning eager PIO, eager DMA, and rendezvous territory.
    const std::size_t size =
        static_cast<std::size_t>(rng.uniform_int(0, 60000));
    plan.push_back({tag, size, static_cast<std::uint8_t>(rng.uniform_int(1, 255))});
  }

  world.spawn(0, [&world, &plan] {
    nm::Core& c = world.core(0);
    auto& sched = world.sched(0);
    sim::Rng pace(99);
    for (const auto& m : plan) {
      std::vector<std::uint8_t> data(m.size, m.fill);
      c.send(world.gate(0, 1), m.tag, data.data(), data.size());
      sched.work(pace.uniform_int(0, 2000));
    }
  });
  world.spawn(1, [&world, &plan] {
    nm::Core& c = world.core(1);
    // Pre-post every receive (per-tag order = send order), then wait in a
    // shuffled order: matching must pair each recv with the right message.
    std::vector<std::vector<std::uint8_t>> bufs;
    std::vector<nm::Request*> reqs;
    bufs.reserve(plan.size());
    for (const auto& m : plan) {
      bufs.emplace_back(m.size + 8, 0);
      reqs.push_back(
          c.irecv(world.gate(1, 0), m.tag, bufs.back().data(), bufs.back().size()));
    }
    std::vector<std::size_t> order(plan.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    sim::Rng pick(7);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  pick.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (std::size_t idx : order) {
      c.wait(reqs[idx]);
      ASSERT_EQ(reqs[idx]->received_length(), plan[idx].size);
      c.release(reqs[idx]);
      for (std::size_t i = 0; i < plan[idx].size; ++i) {
        ASSERT_EQ(bufs[idx][i], plan[idx].fill) << "corruption at byte " << i;
      }
    }
  });
  world.run();
  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string s = std::string(to_string(info.param.lock)) + "_" +
                  to_string(info.param.strategy) + "_s" +
                  std::to_string(info.param.seed);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RandomTrafficSweep,
    ::testing::Values(
        SweepParam{LockMode::kNone, StrategyKind::kDefault, 1},
        SweepParam{LockMode::kNone, StrategyKind::kAggreg, 2},
        SweepParam{LockMode::kCoarse, StrategyKind::kAggreg, 3},
        SweepParam{LockMode::kCoarse, StrategyKind::kDefault, 4},
        SweepParam{LockMode::kFine, StrategyKind::kAggreg, 5},
        SweepParam{LockMode::kFine, StrategyKind::kDefault, 6},
        SweepParam{LockMode::kFine, StrategyKind::kSplit, 7},
        SweepParam{LockMode::kFine, StrategyKind::kAggreg, 8},
        SweepParam{LockMode::kCoarse, StrategyKind::kAggreg, 9},
        SweepParam{LockMode::kFine, StrategyKind::kSplit, 10}),
    sweep_name);

// --- channel order when a rendezvous RTS overtakes eagers -----------------
//
// The packer sends a gate's control chunks (RTS) ahead of its queued eager
// data, so a rendezvous can reach the receiver before earlier eagers of its
// own (gate, tag) channel. Matching must still pair the n-th receive of the
// channel with the n-th message sent on it, in every configuration.

struct ChannelOrderParam {
  StrategyKind strategy;
  int rails;
  int endpoints;
  int rx_queues;
  bool late_post;  ///< receives posted after 800 us instead of up front
};

class ChannelOrderMatrix
    : public ::testing::TestWithParam<ChannelOrderParam> {};

// Node 0 isends six 64 B messages, one 256 KiB rendezvous message and one
// more 64 B message on one (gate, tag); node 1 posts eight receives.
TEST_P(ChannelOrderMatrix, EveryReceiveGetsItsOwnMessage) {
  const ChannelOrderParam p = GetParam();
  constexpr int kMsgs = 8;
  constexpr std::size_t kBig = std::size_t{256} * 1024;
  constexpr Tag kTag = 5;
  auto length = [](int i) { return i == 6 ? kBig : std::size_t{64}; };

  ClusterConfig cfg;
  cfg.nm.strategy = p.strategy;
  cfg.rails.assign(static_cast<std::size_t>(p.rails),
                   net::NicParams::myri10g());
  cfg.endpoints = p.endpoints;
  cfg.rx_queues = p.rx_queues;
  Cluster world(cfg);

  world.spawn(0, [&world, &length] {
    Core& c = world.core(0);
    std::vector<std::vector<std::uint8_t>> msgs;
    std::vector<Request*> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      msgs.emplace_back(length(i), static_cast<std::uint8_t>(i + 1));
    }
    for (auto& m : msgs) {
      reqs.push_back(c.isend(world.gate(0, 1), kTag, m.data(), m.size()));
    }
    for (Request* r : reqs) {
      c.wait(r);
      c.release(r);
    }
  });
  int wrong = 0;
  int received = 0;
  world.spawn(1, [&world, &length, &wrong, &received, late = p.late_post] {
    Core& c = world.core(1);
    if (late) world.sched(1).sleep_for(sim::microseconds(800));
    // Every buffer holds the largest message, so a misdelivery is counted,
    // not thrown.
    std::vector<std::vector<std::uint8_t>> bufs(
        kMsgs, std::vector<std::uint8_t>(kBig));
    std::vector<Request*> reqs;
    for (auto& b : bufs) {
      reqs.push_back(c.irecv(world.gate(1, 0), kTag, b.data(), b.size()));
    }
    for (int i = 0; i < kMsgs; ++i) {
      Request* r = reqs[static_cast<std::size_t>(i)];
      c.wait(r);
      const auto& b = bufs[static_cast<std::size_t>(i)];
      const bool own = r->received_length() == length(i) &&
                       b.front() == i + 1 && b[length(i) - 1] == i + 1;
      if (!own) ++wrong;
      ++received;
      c.release(r);
    }
  });
  world.engine().run_until(sim::milliseconds(20));
  EXPECT_EQ(received, kMsgs);
  EXPECT_EQ(wrong, 0);
}

std::vector<ChannelOrderParam> channel_order_params() {
  std::vector<ChannelOrderParam> out;
  for (StrategyKind s :
       {StrategyKind::kDefault, StrategyKind::kAggreg, StrategyKind::kSplit}) {
    for (int rails : {1, 2}) {
      for (int eps : {1, 4}) {
        for (int rxq : {1, 4}) {
          for (bool late : {false, true}) {
            out.push_back({s, rails, eps, rxq, late});
          }
        }
      }
    }
  }
  return out;
}

std::string channel_order_name(
    const ::testing::TestParamInfo<ChannelOrderParam>& info) {
  const ChannelOrderParam& p = info.param;
  return std::string(to_string(p.strategy)) + "_r" + std::to_string(p.rails) +
         "_ep" + std::to_string(p.endpoints) + "_q" +
         std::to_string(p.rx_queues) + (p.late_post ? "_late" : "_preposted");
}

INSTANTIATE_TEST_SUITE_P(ChannelOrder, ChannelOrderMatrix,
                         ::testing::ValuesIn(channel_order_params()),
                         channel_order_name);

// Two eagers then a rendezvous on one tag around an 8-node ring, under the
// hook-driven, partitioned configuration of a BSP halo exchange: boundary
// fiber 0 of each node receives from the left and sends right, fiber 1 the
// mirror, three messages (4 KiB, 4 KiB, 64 KiB) per fiber per iteration.
TEST(Ordering, EagerThenRendezvousRingKeepsChannelOrder) {
  constexpr int kNodes = 8;
  constexpr int kIters = 30;
  constexpr int kPerIter = 3;
  constexpr std::size_t kLen[kPerIter] = {4096, 4096, 65536};
  constexpr std::size_t kMax = 65536;

  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.nm.lock = LockMode::kFine;
  cfg.nm.wait = WaitMode::kFixedSpin;
  cfg.nm.progress = ProgressMode::kPiomanHooks;
  cfg.partitions = kNodes;
  Cluster world(cfg);

  // Message k of iteration it carries the stamp it * kPerIter + k in its
  // first four bytes; sends and receives of one fiber use one tag.
  int wrong = 0;
  int received = 0;
  std::vector<int> wrong_per_node(kNodes, 0);
  std::vector<int> received_per_node(kNodes, 0);
  for (int n = 0; n < kNodes; ++n) {
    for (int t = 0; t < 2; ++t) {
      world.spawn(n, [&world, &wrong_per_node, &received_per_node, n, t,
                      &kLen] {
        Core& c = world.core(n);
        const int to = t == 0 ? (n + 1) % kNodes : (n + kNodes - 1) % kNodes;
        const int from = t == 0 ? (n + kNodes - 1) % kNodes : (n + 1) % kNodes;
        const Tag tag = 10 + static_cast<Tag>(t);
        std::vector<std::vector<std::uint8_t>> out(
            kPerIter, std::vector<std::uint8_t>(kMax));
        std::vector<std::vector<std::uint8_t>> in(
            kPerIter, std::vector<std::uint8_t>(kMax));
        for (int it = 0; it < kIters; ++it) {
          std::vector<Request*> recvs;
          std::vector<Request*> sends;
          for (auto& b : in) {
            recvs.push_back(c.irecv(world.gate(n, from), tag, b.data(),
                                    b.size()));
          }
          for (int k = 0; k < kPerIter; ++k) {
            const auto stamp = static_cast<std::uint32_t>(it * kPerIter + k);
            auto& b = out[static_cast<std::size_t>(k)];
            std::memcpy(b.data(), &stamp, sizeof(stamp));
            sends.push_back(c.isend(world.gate(n, to), tag, b.data(),
                                    kLen[k]));
          }
          for (int k = 0; k < kPerIter; ++k) {
            Request* r = recvs[static_cast<std::size_t>(k)];
            c.wait(r);
            std::uint32_t stamp = 0;
            std::memcpy(&stamp, in[static_cast<std::size_t>(k)].data(),
                        sizeof(stamp));
            if (r->received_length() != kLen[k] ||
                stamp != static_cast<std::uint32_t>(it * kPerIter + k)) {
              ++wrong_per_node[static_cast<std::size_t>(n)];
            }
            ++received_per_node[static_cast<std::size_t>(n)];
            c.release(r);
          }
          for (Request* r : sends) {
            c.wait(r);
            c.release(r);
          }
        }
      });
    }
  }
  world.engine().run_until(sim::milliseconds(50));
  for (int n = 0; n < kNodes; ++n) {
    wrong += wrong_per_node[static_cast<std::size_t>(n)];
    received += received_per_node[static_cast<std::size_t>(n)];
  }
  EXPECT_EQ(received, kNodes * 2 * kPerIter * kIters);
  EXPECT_EQ(wrong, 0);
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.spawn(0, [&world] {
      nm::Core& c = world.core(0);
      std::vector<std::uint8_t> m(777, 3), b(777);
      for (int i = 0; i < 20; ++i) {
        c.send(world.gate(0, 1), 1, m.data(), m.size());
        c.recv(world.gate(0, 1), 2, b.data(), b.size());
      }
    });
    world.spawn(1, [&world] {
      nm::Core& c = world.core(1);
      std::vector<std::uint8_t> b(777);
      for (int i = 0; i < 20; ++i) {
        c.recv(world.gate(1, 0), 1, b.data(), b.size());
        c.send(world.gate(1, 0), 2, b.data(), b.size());
      }
    });
    world.run();
    return std::pair(world.engine().now(), world.engine().events_executed());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace pm2::nm
