// Message-lifecycle flow tracing over a real two-node pingpong: the stage
// breakdown must telescope to the end-to-end latency, the Chrome trace flow
// events must pair send/recv 1:1, and none of it may perturb virtual time.
#include "obs/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace_log.hpp"

namespace pm2::obs {
namespace {

class FlowTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { MetricsRegistry::global().set_enabled(false); }
};

TEST_F(FlowTraceTest, FlowIdPacksBothEndpoints) {
  const std::uint64_t id = FlowTracer::flow_id(3, 7, 0x1234u);
  EXPECT_EQ(id >> 48, 3u);
  EXPECT_EQ((id >> 32) & 0xffffu, 7u);
  EXPECT_EQ(id & 0xffffffffu, 0x1234u);
  EXPECT_NE(FlowTracer::flow_id(0, 1, 5), FlowTracer::flow_id(1, 0, 5));
}

TEST_F(FlowTraceTest, StampLastWinsAndCompletes) {
  TraceLog log;
  FlowTracer tracer(log);
  const std::uint64_t id = FlowTracer::flow_id(0, 1, 1);
  tracer.stamp(id, FlowStage::kPost, 100, 0, 0);
  tracer.stamp(id, FlowStage::kArrange, 150, 0, 0);
  tracer.stamp(id, FlowStage::kNicPost, 200, 0, 0);
  // Multi-chunk message: the stage is re-stamped; the last timestamp wins.
  tracer.stamp(id, FlowStage::kWireDone, 300, 0, 0);
  tracer.stamp(id, FlowStage::kWireDone, 400, 0, 0);
  const FlowTracer::Flow* f = tracer.find(id);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->ts[static_cast<int>(FlowStage::kWireDone)], 400);
  EXPECT_FALSE(f->complete());
  EXPECT_EQ(tracer.completed_count(), 0u);
  tracer.stamp(id, FlowStage::kDeliver, 500, 1, 0);
  tracer.stamp(id, FlowStage::kComplete, 550, 1, 0);
  // Reads rebuild the flow map from the log, so look the flow up again.
  f = tracer.find(id);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->complete());
  EXPECT_EQ(f->ts[static_cast<int>(FlowStage::kWireDone)], 400);
  EXPECT_EQ(tracer.completed_count(), 1u);
  EXPECT_EQ(tracer.flow_count(), 1u);
}

/// Run @p iters 64 B pingpong rounds; returns the final virtual time.
sim::Time run_pingpong(nm::Cluster& world, int iters) {
  world.spawn(0, [&world, iters] {
    auto& c = world.core(0);
    auto* g = world.gate(0, 1);
    std::vector<std::uint8_t> m(64), b(64);
    for (int i = 0; i < iters; ++i) {
      c.send(g, 1, m.data(), m.size());
      c.recv(g, 2, b.data(), b.size());
    }
  });
  world.spawn(1, [&world, iters] {
    auto& c = world.core(1);
    auto* g = world.gate(1, 0);
    std::vector<std::uint8_t> b(64);
    for (int i = 0; i < iters; ++i) {
      c.recv(g, 1, b.data(), b.size());
      c.send(g, 2, b.data(), b.size());
    }
  });
  world.run();
  return world.engine().now();
}

TEST_F(FlowTraceTest, PingpongBreakdownTelescopesToEndToEnd) {
  MetricsRegistry::global().set_enabled(true);
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  FlowTracer& tracer = world.enable_flow_trace();
  const int kIters = 25;
  run_pingpong(world, kIters);

  // One flow per message: ping + pong per round.
  EXPECT_EQ(tracer.flow_count(), static_cast<std::size_t>(2 * kIters));
  EXPECT_EQ(tracer.completed_count(), tracer.flow_count());

  // Every flow saw all six stages in non-decreasing time order, half
  // starting on node 0 and half on node 1.
  int from0 = 0;
  for (std::uint64_t id : tracer.ids()) {
    const FlowTracer::Flow* f = tracer.find(id);
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(f->complete());
    for (int s = 1; s < kFlowStageCount; ++s) {
      EXPECT_GE(f->ts[s], f->ts[s - 1]) << "flow " << id << " stage " << s;
    }
    if (id >> 48 == 0) ++from0;
  }
  EXPECT_EQ(from0, kIters);

  // The five segments telescope: per flow (hence also on average) their sum
  // is exactly the post -> complete latency, up to fp rounding.
  const auto segments = tracer.breakdown();
  ASSERT_EQ(segments.size(), 5u);
  const sim::SampleSet e2e = tracer.end_to_end_us();
  EXPECT_EQ(e2e.count(), tracer.completed_count());
  double segment_mean_sum = 0.0;
  for (const auto& seg : segments) {
    EXPECT_EQ(seg.us.count(), tracer.completed_count()) << seg.name;
    segment_mean_sum += seg.us.mean();
  }
  EXPECT_NEAR(segment_mean_sum, e2e.mean(), 1e-6);
  EXPECT_GT(e2e.mean(), 0.0);

  const std::string json = tracer.to_json();
  for (const char* name : {"pack", "submit", "wire", "unpack", "notify"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

/// Collect the ids of flow events with phase @p ph (one JSON line each).
std::vector<std::uint64_t> flow_ids_of_phase(const std::string& json,
                                             char ph) {
  std::vector<std::uint64_t> ids;
  const std::string needle = std::string("\"ph\":\"") + ph + "\"";
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(needle) == std::string::npos) continue;
    const std::size_t at = line.find("\"id\":");
    EXPECT_NE(at, std::string::npos) << line;
    if (at != std::string::npos) ids.push_back(std::stoull(line.substr(at + 5)));
  }
  return ids;
}

TEST_F(FlowTraceTest, ChromeFlowEventsPairSendAndRecv) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  TraceLog& log = world.enable_timeline();
  FlowTracer& tracer = world.enable_flow_trace();
  const int kIters = 10;
  run_pingpong(world, kIters);

  const std::string json = log.to_json();
  std::vector<std::uint64_t> begins = flow_ids_of_phase(json, 's');
  std::vector<std::uint64_t> steps = flow_ids_of_phase(json, 't');
  std::vector<std::uint64_t> ends = flow_ids_of_phase(json, 'f');

  // One begin ('s', at NIC post), one step ('t', at delivery) and one end
  // ('f', at completion) per flow -- ids pair 1:1 across the three phases.
  EXPECT_EQ(begins.size(), tracer.flow_count());
  std::sort(begins.begin(), begins.end());
  std::sort(steps.begin(), steps.end());
  std::sort(ends.begin(), ends.end());
  EXPECT_TRUE(std::adjacent_find(begins.begin(), begins.end()) ==
              begins.end());  // ids are unique
  EXPECT_EQ(begins, steps);
  EXPECT_EQ(begins, ends);
  // The terminating event binds to the enclosing slice (Perfetto draws the
  // arrowhead there).
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST_F(FlowTraceTest, ReportCarriesCrossLayerMetricsAndFlows) {
  auto& reg = MetricsRegistry::global();
  reg.set_enabled(true);
  nm::ClusterConfig cfg;
  cfg.nm.lock = nm::LockMode::kCoarse;
  nm::Cluster world(cfg);
  reg.reset_values();
  FlowTracer& tracer = world.enable_flow_trace();
  run_pingpong(world, 10);

  const std::string json = report_json(reg, &tracer);
  for (const char* want :
       {"pm2sim-report-v1", "acquisitions", "contentions", "hold_ns",
        "context_switches", "poll_passes", "tasklet_runs", "tx_bytes",
        "rx_packets", "sends", "recvs", "unpack"}) {
    EXPECT_NE(json.find(want), std::string::npos) << want;
  }

  // The registry saw real traffic on both nodes.
  EXPECT_GT(reg.counter_value("nmad", "node0", "sends").value_or(0), 0u);
  EXPECT_GT(reg.counter_value("nmad", "node1", "recvs").value_or(0), 0u);
  EXPECT_GT(
      reg.counter_value("nic", "node0", "fabric-0.tx_bytes").value_or(0), 0u);
  EXPECT_GT(
      reg.counter_value("sync", "node0", "nm-global.acquisitions").value_or(0),
      0u);
  EXPECT_GT(reg.counter_value("sched", "node0", "context_switches", 0)
                .value_or(0),
            0u);
}

TEST_F(FlowTraceTest, InstrumentationDoesNotPerturbVirtualTime) {
  const int kIters = 15;
  sim::Time plain;
  {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    plain = run_pingpong(world, kIters);
  }
  sim::Time instrumented;
  {
    MetricsRegistry::global().set_enabled(true);
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.enable_timeline();
    world.enable_flow_trace();
    instrumented = run_pingpong(world, kIters);
    MetricsRegistry::global().set_enabled(false);
  }
  EXPECT_EQ(plain, instrumented);
}

}  // namespace
}  // namespace pm2::obs
