// Full-stack timeline recording through Cluster::enable_timeline().
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/temp_file.hpp"
#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

TEST(Timeline, RecordsThreadSpansAndNicActivity) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  obs::TraceLog& trace = world.enable_timeline();
  world.spawn(0, [&world] {
    std::uint8_t b[32] = {};
    world.core(0).send(world.gate(0, 1), 1, b, 32);
    world.core(0).recv(world.gate(0, 1), 2, b, 32);
  }, "pinger");
  world.spawn(1, [&world] {
    std::uint8_t b[32];
    world.core(1).recv(world.gate(1, 0), 1, b, 32);
    world.core(1).send(world.gate(1, 0), 2, b, 32);
  }, "ponger");
  world.run();

  EXPECT_GT(trace.record_count(), 4u);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("pinger"), std::string::npos);
  EXPECT_NE(json.find("ponger"), std::string::npos);
  EXPECT_NE(json.find("tx 67B -> port 1"), std::string::npos)
      << "expected a NIC tx span (2 B count + 33 B header + 32 B data)";
  EXPECT_NE(json.find("node 0"), std::string::npos);
  EXPECT_NE(json.find("nic rail 0"), std::string::npos);
}

TEST(Timeline, WriteThroughClusterHelper) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.enable_timeline();
  world.spawn(0, [&world] { world.sched(0).work(sim::microseconds(5)); });
  world.run();
  const std::string path = test::temp_file("pm2sim_cluster_trace.json");
  world.write_timeline(path);
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
  std::remove(path.c_str());
}

TEST(Timeline, DisabledByDefault) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  EXPECT_EQ(world.trace_log(), nullptr);
  EXPECT_THROW(world.write_timeline("/tmp/x.json"), std::logic_error);
}

}  // namespace
}  // namespace pm2::nm
