// Tests for the binary telemetry path: the lock-free SPSC trace ring, the
// TraceLog recorder (spill / drop policies, intern table), the binary log
// round trip, and byte-stability of the converted Chrome trace JSON across
// worker counts.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_file.hpp"
#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace_log.hpp"
#include "obs/trace_ring.hpp"

namespace pm2 {
namespace {

obs::TraceRecord make_rec(std::uint64_t i) {
  obs::TraceRecord r;
  r.ts = static_cast<sim::Time>(i);
  r.id = i;
  r.pid = static_cast<std::int32_t>(i % 7);
  r.phase = 'i';
  return r;
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::TraceRing(1).capacity(), 2u);
  EXPECT_EQ(obs::TraceRing(2).capacity(), 2u);
  EXPECT_EQ(obs::TraceRing(3).capacity(), 4u);
  EXPECT_EQ(obs::TraceRing(4096).capacity(), 4096u);
  EXPECT_EQ(obs::TraceRing(5000).capacity(), 8192u);
}

TEST(TraceRing, FifoAcrossWraparound) {
  obs::TraceRing ring(8);
  obs::TraceRecord out[8];
  std::uint64_t next = 0;
  std::uint64_t expect = 0;
  // Push/pop in a pattern that wraps the indices many times.
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 5; ++k) ASSERT_TRUE(ring.try_push(make_rec(next++)));
    const std::size_t n = ring.pop_n(out, 5);
    ASSERT_EQ(n, 5u);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(out[k].id, expect);
      EXPECT_EQ(out[k].ts, static_cast<sim::Time>(expect));
      ++expect;
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(TraceRing, RejectsWhenFullAndRecoversAfterPop) {
  obs::TraceRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(make_rec(i)));
  EXPECT_FALSE(ring.try_push(make_rec(99)));
  EXPECT_EQ(ring.size(), 4u);
  obs::TraceRecord out[2];
  ASSERT_EQ(ring.pop_n(out, 2), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_TRUE(ring.try_push(make_rec(4)));
  EXPECT_TRUE(ring.try_push(make_rec(5)));
  EXPECT_FALSE(ring.try_push(make_rec(100)));
}

TEST(TraceRing, SpscRealThreads) {
  // One real producer thread, one real consumer thread (the configuration
  // the memory ordering is written for; run under TSan via
  // bench/check_sanitize.sh).
  constexpr std::uint64_t kRecords = 200000;
  obs::TraceRing ring(256);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      while (!ring.try_push(make_rec(i))) std::this_thread::yield();
    }
  });
  std::uint64_t expect = 0;
  obs::TraceRecord out[64];
  while (expect < kRecords) {
    const std::size_t n = ring.pop_n(out, 64);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(out[k].id, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(TraceLog, InternReturnsStableIdsAndZeroForEmpty) {
  obs::TraceLog log;
  EXPECT_EQ(log.intern(""), 0);
  const std::uint16_t a = log.intern("alpha");
  const std::uint16_t b = log.intern("beta");
  EXPECT_NE(a, 0);
  EXPECT_NE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(log.intern("alpha"), a);
  EXPECT_EQ(log.intern("beta"), b);
}

TEST(TraceLog, InternConcurrentThreadsAgree) {
  obs::TraceLog log;
  constexpr int kThreads = 4;
  constexpr int kStrings = 64;
  std::vector<std::vector<std::uint16_t>> ids(
      kThreads, std::vector<std::uint16_t>(kStrings));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &ids, t] {
      for (int s = 0; s < kStrings; ++s) {
        ids[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)] =
            log.intern("str-" + std::to_string(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0]);
  }
}

TEST(TraceLog, SelfSpillIsLosslessBeyondCapacity) {
  obs::TraceLog::Options opts;
  opts.capacity = 64;
  obs::TraceLog log(opts);
  constexpr std::uint64_t kRecords = 10000;
  for (std::uint64_t i = 0; i < kRecords; ++i) log.push(make_rec(i));
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.record_count(), kRecords);
  const auto recs = log.canonical_records();
  ASSERT_EQ(recs.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) EXPECT_EQ(recs[i].id, i);
}

TEST(TraceLog, DropPolicyIsDeterministicAtFixedCapacity) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  for (int run = 0; run < 2; ++run) {
    obs::TraceLog::Options opts;
    opts.capacity = 64;
    opts.overflow = obs::TraceLog::Overflow::kDrop;
    obs::TraceLog log(opts);  // re-registers obs.trace.dropped, zeroing it
    for (std::uint64_t i = 0; i < 200; ++i) log.push(make_rec(i));
    // Same capacity, same input: the drop set is identical every run.
    EXPECT_EQ(log.dropped(), 200u - 64u);
    EXPECT_EQ(log.record_count(), 64u);
    EXPECT_EQ(reg.counter_value("obs", "", "trace.dropped"),
              std::optional<std::uint64_t>(200u - 64u));
    const auto recs = log.canonical_records();
    ASSERT_EQ(recs.size(), 64u);
    for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(recs[i].id, i);
  }
  reg.set_enabled(false);
}

// --- whole-world conversions ------------------------------------------------

void run_pingpong(nm::Cluster& world, int src, int dst, int iters,
                  nm::Tag tag_base) {
  world.spawn(src, [&world, src, dst, iters, tag_base] {
    auto& c = world.core(src);
    auto* g = world.gate(src, dst);
    std::vector<std::uint8_t> m(64), b(64);
    for (int i = 0; i < iters; ++i) {
      c.send(g, tag_base, m.data(), m.size());
      c.recv(g, tag_base + 1, b.data(), b.size());
    }
  });
  world.spawn(dst, [&world, src, dst, iters, tag_base] {
    auto& c = world.core(dst);
    auto* g = world.gate(dst, src);
    std::vector<std::uint8_t> b(64);
    for (int i = 0; i < iters; ++i) {
      c.recv(g, tag_base, b.data(), b.size());
      c.send(g, tag_base + 1, b.data(), b.size());
    }
  });
}

TEST(TraceLog, BinaryRoundTripByteIdenticalToOnlineJson) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  obs::TraceLog& log = world.enable_timeline();
  world.enable_flow_trace();
  run_pingpong(world, 0, 1, 20, 1000);
  world.run();
  const std::string online = log.to_json();
  // The recorded material: thread spans and synthesized flow arrows.
  EXPECT_NE(online.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(online.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(online.find("\"ph\":\"f\""), std::string::npos);

  const std::string path = test::temp_file("pm2sim_trace_roundtrip.trace.bin");
  world.write_trace_binary(path);
  const obs::TraceLog::Data data = obs::TraceLog::read_binary(path);
  std::remove(path.c_str());

  EXPECT_EQ(data.rings.size(), 1u);
  EXPECT_EQ(data.record_count(), log.record_count());
  // The offline converter (same code as tools/trace2json) reproduces the
  // online JSON byte for byte.
  EXPECT_EQ(obs::TraceLog::data_to_json(data), online);
}

TEST(TraceLog, TimelineJsonByteStableAcrossWorkerCounts) {
  // 4 nodes in 2 partitions (nodes 0/2 -> partition 0, nodes 1/3 ->
  // partition 1), two cross-partition pingpong pairs: with 2 workers, two
  // host threads trace concurrently into their own rings. The canonical
  // (emit, partition, seq) merge must render identical bytes either way.
  auto traced_json = [](int workers) {
    nm::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.partitions = 2;
    cfg.workers = workers;
    nm::Cluster world(cfg);
    obs::TraceLog& log = world.enable_timeline();
    world.enable_flow_trace();
    run_pingpong(world, 0, 1, 20, 1000);
    run_pingpong(world, 2, 3, 20, 3000);
    world.run();
    return log.to_json();
  };
  const std::string w1 = traced_json(1);
  const std::string w2 = traced_json(2);
  ASSERT_FALSE(w1.empty());
  EXPECT_EQ(w1, w2);
}

TEST(TraceLog, ReportIncludesTraceSummary) {
  obs::TraceLog log;
  for (std::uint64_t i = 0; i < 5; ++i) log.push(make_rec(i));
  const std::string report =
      obs::report_json(obs::MetricsRegistry::global(), nullptr, &log);
  EXPECT_NE(report.find("\"trace\":{\"records\":5,\"dropped\":0}"),
            std::string::npos);
}

}  // namespace
}  // namespace pm2
