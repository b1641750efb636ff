// TraceLog's two outputs at the byte level: the Chrome trace-event JSON it
// renders (event shapes, metadata, string escaping, file writes) and the
// binary-log reader's rejection of counts the file cannot hold.
#include "obs/trace_log.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/temp_file.hpp"

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

}  // namespace
}  // namespace pm2::obs
