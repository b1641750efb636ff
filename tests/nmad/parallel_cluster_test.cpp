// Parallel-engine guard at the cluster level: a partitioned multi-node
// world must produce the exact same virtual-time schedule no matter how
// many host worker threads execute it. The partition count itself is part
// of the schedule (documented in ClusterConfig), so runs are only compared
// at equal partition counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

struct RunResult {
  std::uint64_t events_executed;
  std::uint64_t cross_events;
  sim::Time final_time;
  std::vector<sim::Time> iteration_times;
};

// Independent pingpong pairs (0 <-> 1, 2 <-> 3, ...), two by default. With
// partitions = 2 every message crosses partitions (node n lives in
// partition n % 2); with partitions = nodes each node owns a partition.
RunResult run_pairs(int partitions, int workers, int nodes = 4) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.partitions = partitions;
  cfg.workers = workers;
  Cluster world(cfg);
  RunResult r{};
  const std::size_t kIters = 16;

  // Iteration stamps are appended by two different virtual nodes; collect
  // them per pair so host-thread interleaving cannot reorder the vector.
  std::vector<std::vector<sim::Time>> stamps(
      static_cast<std::size_t>(nodes / 2));

  for (int pair = 0; pair < nodes / 2; ++pair) {
    const int a = 2 * pair, b = 2 * pair + 1;
    world.spawn(a, [&world, &stamps, pair, a, b] {
      auto& c = world.core(a);
      auto* g = world.gate(a, b);
      std::vector<std::uint8_t> m(256), buf(256);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.send(g, 1, m.data(), m.size());
        c.recv(g, 2, buf.data(), buf.size());
        stamps[static_cast<std::size_t>(pair)].push_back(world.engine().now());
      }
    });
    world.spawn(b, [&world, a, b] {
      auto& c = world.core(b);
      auto* g = world.gate(b, a);
      std::vector<std::uint8_t> buf(256);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.recv(g, 1, buf.data(), buf.size());
        c.send(g, 2, buf.data(), buf.size());
      }
    });
  }
  world.run();
  for (auto& s : stamps) {
    r.iteration_times.insert(r.iteration_times.end(), s.begin(), s.end());
  }
  r.events_executed = world.engine().events_executed();
  r.cross_events = world.engine().cross_events();
  r.final_time = world.engine().now();
  return r;
}

void expect_same(const RunResult& a, const RunResult& b, const char* what) {
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
  EXPECT_EQ(a.cross_events, b.cross_events) << what;
  EXPECT_EQ(a.final_time, b.final_time) << what;
  ASSERT_EQ(a.iteration_times.size(), b.iteration_times.size()) << what;
  for (std::size_t i = 0; i < a.iteration_times.size(); ++i) {
    EXPECT_EQ(a.iteration_times[i], b.iteration_times[i])
        << what << ": virtual time diverged at iteration " << i;
  }
}

TEST(ParallelCluster, ScheduleIsIdenticalAcrossWorkerCounts) {
  for (const int partitions : {2, 4}) {
    const RunResult w1 = run_pairs(partitions, 1);
    const RunResult w2 = run_pairs(partitions, 2);
    const RunResult w4 = run_pairs(partitions, 4);
    SCOPED_TRACE(testing::Message() << "partitions=" << partitions);
    expect_same(w1, w2, "workers 1 vs 2");
    expect_same(w1, w4, "workers 1 vs 4");
    EXPECT_GT(w1.events_executed, 0u);
    EXPECT_GT(w1.cross_events, 0u);  // wire traffic really crossed partitions
    EXPECT_GT(w1.final_time, 0);
  }
}

TEST(ParallelCluster, PartitionedRunIsRepeatableInProcess) {
  const RunResult first = run_pairs(2, 2);
  const RunResult second = run_pairs(2, 2);
  expect_same(first, second, "warm pools, same partitioning");
}

TEST(ParallelCluster, MoreWorkersThanHostCpus) {
  // Eight workers on a host with fewer CPUs: a waiting worker runs past its
  // spin budget into the yield and park phases of the window barrier.
  const RunResult w1 = run_pairs(8, 1, 8);
  const RunResult w8 = run_pairs(8, 8, 8);
  expect_same(w1, w8, "workers 1 vs 8");
  EXPECT_GT(w1.cross_events, 0u);
}

// A 64 B message into an 8 B receive. The receiver waits passively, so a
// PIOMan hook matches the message and the length check throws from an
// engine event rather than from inside the receiving fiber. Returns what
// run() threw. The receiving fiber never resumes after the throw and is
// torn down unfinished, so its buffers live on its stack: a heap buffer
// would stay allocated.
std::string truncated_receive_error(int partitions, int workers) {
  ClusterConfig cfg;
  cfg.partitions = partitions;
  cfg.workers = workers;
  cfg.nm.progress = ProgressMode::kPiomanHooks;
  cfg.nm.wait = WaitMode::kPassive;
  Cluster world(cfg);
  world.spawn(0, [&world] {
    const std::uint8_t m[64] = {};
    world.core(0).send(world.gate(0, 1), 1, m, sizeof m);
  });
  world.spawn(1, [&world] {
    std::uint8_t buf[8];
    world.core(1).recv(world.gate(1, 0), 1, buf, sizeof buf);
  });
  try {
    world.run();
  } catch (const std::length_error& e) {
    return e.what();
  }
  return "run() returned";
}

TEST(ParallelCluster, TruncatedReceiveThrowsAtEveryWorkerCount) {
  const std::string expected = "nm: message exceeds receive buffer (64 > 8)";
  EXPECT_EQ(truncated_receive_error(1, 1), expected);
  for (const int workers : {1, 2}) {
    EXPECT_EQ(truncated_receive_error(2, workers), expected)
        << "workers " << workers;
  }
}

}  // namespace
}  // namespace pm2::nm
