// TraceLog: the Chrome trace-event JSON it renders (event shapes, metadata,
// string escaping, file writes), the binary-log reader's rejection of counts
// the file cannot hold, and capture -- the intern table, push order, the
// binary round trip and byte-stability across worker counts in whole
// worlds.
#include "obs/trace_log.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_file.hpp"
#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace pm2::obs {
namespace {

void instant(TraceLog& log, const char* name) {
  log.instant_event(log.intern(name), log.intern("cat"), 0, 0, 0);
}

TEST(TraceLog, EmitsCompleteEvents) {
  TraceLog log;
  log.complete_event(log.intern("work"), log.intern("thread"), 0, 1, 1000,
                     500);
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.500"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0,\"tid\":1"), std::string::npos);
}

TEST(TraceLog, EmitsInstantEvents) {
  TraceLog log;
  log.instant_event(log.intern("rx"), log.intern("nic"), 1, 64, 2000);
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Only flow-arrow events carry an id.
  EXPECT_EQ(json.find("\"id\":"), std::string::npos);
}

TEST(TraceLog, MetadataNamesProcessesAndThreads) {
  TraceLog log;
  log.set_process_name(2, "node 2");
  log.set_thread_name(2, 0, "core 0");
  const std::string json = log.to_json();
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("node 2"), std::string::npos);
}

TEST(TraceLog, EscapesSpecialCharacters) {
  TraceLog log;
  instant(log, "we\"ird\\name");
  const std::string json = log.to_json();
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceLog, EscapesControlCharacters) {
  // Regression: thread names with control characters used to produce JSON
  // that Perfetto rejects. Every char below 0x20 must be escaped.
  TraceLog log;
  instant(log, "tab\there");
  instant(log, "line\nbreak");
  instant(log, "cr\rlf");
  instant(log, "bell\x07!");
  instant(log, "back\bspace");
  instant(log, "form\ffeed");
  const std::string json = log.to_json();
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(json.find("cr\\rlf"), std::string::npos);
  EXPECT_NE(json.find("bell\\u0007!"), std::string::npos);
  EXPECT_NE(json.find("back\\bspace"), std::string::npos);
  EXPECT_NE(json.find("form\\ffeed"), std::string::npos);
  // No raw control character may survive into the serialized output; the
  // only one allowed is the '\n' the serializer itself emits between
  // events (legal JSON whitespace, outside every string).
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(TraceLog, WritesJsonFile) {
  TraceLog log;
  log.complete_event(log.intern("x"), log.intern("y"), 0, 0, 0, 10);
  const std::string path = test::temp_file("pm2sim_trace_test.json");
  log.write_json(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceLog, WriteJsonToBadPathThrows) {
  TraceLog log;
  EXPECT_THROW(log.write_json("/nonexistent-dir-xyz/trace.json"),
               std::runtime_error);
}

// --- read_binary on counts the file cannot hold ----------------------------
//
// Each log below is a valid header (plus at most one ring header) whose
// count claims far more data than follows. The reader must reject it as
// malformed before sizing anything from the count.

struct LogHeader {
  char magic[8] = {'P', 'M', '2', 'T', 'R', 'C', '0', '1'};
  std::uint32_t version = 1;
  std::uint32_t record_size = sizeof(TraceRecord);
  std::uint32_t ring_count = 0;
  std::uint32_t string_count = 0;
};

struct LogRingHeader {
  std::uint64_t count = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t dropped = 0;
};

/// Write @p h (and @p ring, when given) to a fresh log, parse it, and
/// return the std::runtime_error message ("" when parsing succeeds).
std::string read_error(const std::string& name, const LogHeader& h,
                       const LogRingHeader* ring = nullptr) {
  const std::string path = test::temp_file(name);
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
    if (ring != nullptr) {
      f.write(reinterpret_cast<const char*>(ring), sizeof(*ring));
    }
  }
  std::string what;
  try {
    TraceLog::read_binary(path);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

TEST(TraceLog, ReadBinaryRejectsRingCountBeyondFile) {
  LogHeader h;
  h.ring_count = 0xFFFFFFFFu;
  EXPECT_NE(read_error("pm2sim_bad_rings.trace.bin", h)
                .find("truncated ring headers"),
            std::string::npos);
}

TEST(TraceLog, ReadBinaryRejectsRecordCountBeyondFile) {
  LogHeader h;
  h.ring_count = 1;
  LogRingHeader ring;
  ring.count = std::uint64_t{1} << 40;
  EXPECT_NE(read_error("pm2sim_bad_records.trace.bin", h, &ring)
                .find("truncated records"),
            std::string::npos);
}

TEST(TraceLog, ReadBinaryRejectsStringCountBeyondFile) {
  LogHeader h;
  h.string_count = 0xFFFFFFFFu;
  EXPECT_NE(read_error("pm2sim_bad_strings.trace.bin", h)
                .find("truncated string table"),
            std::string::npos);
}

// --- capture ---------------------------------------------------------------

obs::TraceRecord make_rec(std::uint64_t i) {
  obs::TraceRecord r;
  r.ts = static_cast<sim::Time>(i);
  r.id = i;
  r.pid = static_cast<std::int32_t>(i % 7);
  r.phase = 'i';
  return r;
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

TEST(TraceLog, PushesComeBackInPushOrder) {
  obs::TraceLog log;
  constexpr std::uint64_t kRecords = 10000;
  for (std::uint64_t i = 0; i < kRecords; ++i) log.push(make_rec(i));
  EXPECT_EQ(log.record_count(), kRecords);
  const auto recs = log.canonical_records();
  ASSERT_EQ(recs.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) EXPECT_EQ(recs[i].id, i);
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
  // host threads trace concurrently into their own record vectors. The canonical
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
}  // namespace pm2::obs
