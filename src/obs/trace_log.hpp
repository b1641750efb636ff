// pm2sim -- the trace recorder: per-partition record vectors, a binary log
// format, and the canonical merge to Chrome trace-event JSON.
//
// TraceLog is the one recording path for timeline events (scheduler spans,
// hook time, NIC tx/rx) and flow-lifecycle stamps, over one record store
// per engine partition. The producer path (push) is the partition's host
// worker: it stamps the record with the partition clock (`emit`), routes by
// sim::tls_partition and appends to that partition's records -- no lock, no
// formatting, one store. A partition runs on one host worker at a time
// (the engine pins partition p to worker p % workers, and the window
// barrier orders one window's appends before the next window's), so each
// partition's records have one writer. They are kept in fixed-size chunks
// recycled through a process-wide pool: an append never moves earlier
// records, and a new trace writes into memory an earlier one faulted in
// instead of growing a fresh vector (a page fault per 4 KiB and a copy at
// every doubling; in the trace_overhead gate's pingpong those cost about
// as much as the appends themselves). Strings cross the
// boundary as u16 ids from a lock-free-read intern table (insert-locked,
// first sight of a string only).
// Read-side calls (record_count, the exports) run after the world's run.
//
// The canonical order that makes every export byte-stable at any worker
// count: records sort by (emit, partition, seq) -- `emit` is
// partition-clock virtual time, seq the push order within the partition,
// all host-schedule-independent. For a single-partition world this order
// *is* push order.
//
// write_binary() writes a compact log (48 B/record + string table +
// per-partition sequence headers); tools/trace2json converts offline via
// read_binary()/data_to_json(), which render through the same JSON emitter
// as to_json(), so online and offline output agree byte-for-byte.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "simcore/engine.hpp"

namespace pm2::obs {

/// Phase byte for flow-lifecycle stamps (obs::FlowTracer). Not a Chrome
/// trace phase: the JSON rendering aggregates these records into the
/// per-stage latency breakdown and synthesizes the "s"/"t"/"f" flow-arrow
/// events from them.
inline constexpr std::uint8_t kFlowStampPhase = 0x80;

/// One fixed-size binary trace record (48 bytes, trivially copyable).
///
/// Field use by phase:
///   'X' complete   ts=start dur=duration     name/cat interned
///   'i' instant    ts=t                      name/cat interned
///   'M' metadata   name=display name         cat=interned meta kind
///   kFlowStampPhase ts=stamp time  dur=stage  id=flow id  pid/tid=node/core
///
/// `emit` is the virtual time at which the record was *created* (the
/// producing partition's clock), the primary canonical-merge key: within a
/// partition it is non-decreasing in push order, and it is a virtual-time
/// property, so the merged order -- and the converted JSON -- is identical
/// for any host worker count.
struct TraceRecord {
  sim::Time ts = 0;
  sim::Time emit = 0;
  std::int64_t dur = 0;
  std::uint64_t id = 0;
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  std::uint16_t name = 0;
  std::uint16_t cat = 0;
  std::uint8_t phase = 0;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(TraceRecord) == 48, "binary log format is 48 B/record");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

class TraceLog {
 public:
  struct Options {
    int partitions = 1;  ///< record vectors: one per engine partition
    const sim::Engine* engine = nullptr;  ///< stamps `emit`; may be null
  };

  TraceLog() { configure(Options{}); }
  explicit TraceLog(const Options& opts) { configure(opts); }
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// (Re)build the record vectors. Not callable while producers are
  /// active; discards previously captured records.
  void configure(const Options& opts);

  // --- recording ------------------------------------------------------------

  /// Id of @p s, assigning one on first sight; id 0 is always "". Callable
  /// from any engine worker (lock-free lookup, locked only on first sight).
  /// Hot call sites cache the result.
  std::uint16_t intern(std::string_view s);

  /// A completed span of [start, start+duration) on (pid, tid). Out of
  /// line, like instant_event, so the scheduler and NIC paths that call
  /// them behind a null check stay small when no timeline is attached.
  void complete_event(std::uint16_t name, std::uint16_t cat, int pid, int tid,
                      sim::Time start, sim::Time duration);

  /// A point event.
  void instant_event(std::uint16_t name, std::uint16_t cat, int pid, int tid,
                     sim::Time t);

  /// Metadata: display names for processes (nodes) and threads (cores).
  void set_process_name(int pid, std::string_view name);
  void set_thread_name(int pid, int tid, std::string_view name);

  /// The producer hot path, inline: stamp the partition clock, route by
  /// partition, append.
  void push(TraceRecord r) {
    r.emit = engine_ != nullptr ? engine_->now() : 0;
    append() = r;
  }

  /// The calling partition's next record, for a producer to fill every
  /// field of in place (chunks are recycled; fill() writes them all).
  /// Storing the fields straight into the slot, rather than copying a
  /// record just built on the stack, keeps an append to plain stores, and
  /// the line a few appends ahead is fetched for writing meanwhile.
  TraceRecord& append() {
    auto p = static_cast<std::size_t>(sim::tls_partition);
    if (p >= parts_.size()) p = 0;
    Partition& part = parts_[p];
    if (part.next == part.end) add_chunk(part);
    // An address, not a pointer into the chunk: near its end the line
    // fetched lies past it, which a prefetch tolerates.
    __builtin_prefetch(reinterpret_cast<const void*>(
                           reinterpret_cast<std::uintptr_t>(part.next) +
                           kPrefetchRecords * sizeof(TraceRecord)),
                       1);
    return *part.next++;
  }
  static void fill(TraceRecord& r, sim::Time ts, sim::Time emit,
                   std::int64_t dur, std::uint64_t id, int pid, int tid,
                   std::uint16_t name, std::uint16_t cat, std::uint8_t phase) {
    r.ts = ts;
    r.emit = emit;
    r.dur = dur;
    r.id = id;
    r.pid = pid;
    r.tid = tid;
    r.name = name;
    r.cat = cat;
    r.phase = phase;
    r.pad[0] = r.pad[1] = r.pad[2] = 0;
  }

  // --- results (after the run) ----------------------------------------------

  /// No-op: records are stored as they are pushed, so nothing is buffered.
  void drain_now() {}

  /// Total records captured so far.
  std::size_t record_count() const;

  /// Every record merged in canonical (emit, partition, seq) order -- the
  /// byte-stable export order.
  std::vector<TraceRecord> canonical_records() const;

  /// Render everything captured so far as Chrome trace-event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev) in canonical order.
  std::string to_json();

  /// Write to_json() to @p path; throws on I/O failure.
  void write_json(const std::string& path);

  /// Everything needed to interpret a log outside this process: one record
  /// vector per partition ("ring" in the log format).
  struct Data {
    std::vector<std::vector<TraceRecord>> rings;
    std::vector<std::string> strings;
    std::vector<std::uint64_t> dropped;  ///< per ring; this writer writes 0
    std::size_t record_count() const {
      std::size_t n = 0;
      for (const auto& r : rings) n += r.size();
      return n;
    }
  };

  /// Write the compact binary log; throws on I/O failure. Layout: header,
  /// per-ring sequence headers (count, first seq, dropped), raw records per
  /// ring, string table.
  void write_binary(const std::string& path);

  /// Parse a binary log; throws std::runtime_error on malformed input,
  /// including counts that claim more bytes than the file holds (checked
  /// before anything is allocated for them).
  static Data read_binary(const std::string& path);

  /// Canonical-merge @p data and render the JSON -- byte-identical to what
  /// to_json() produced in the process that wrote the log.
  static std::string data_to_json(const Data& data);

 private:
  static constexpr std::size_t kChunkRecords = 1024;  // 48 KiB
  static constexpr std::size_t kPrefetchRecords = 16;  ///< append()'s prefetch distance
  using Chunk = std::unique_ptr<TraceRecord[]>;

  /// One partition's records in push order, on its own cache line so two
  /// workers' appends never share one.
  struct alignas(64) Partition {
    std::vector<Chunk> chunks;    ///< full, except the last
    TraceRecord* next = nullptr;  ///< next free record of the last chunk
    TraceRecord* end = nullptr;   ///< one past the last chunk
    std::size_t size() const;
    /// The records of @p chunk, a chunk of this partition.
    const TraceRecord* end_of(const Chunk& chunk) const {
      return &chunk == &chunks.back() ? next : chunk.get() + kChunkRecords;
    }
  };

  /// Give @p part a chunk from the pool (a new one if the pool is empty).
  static void add_chunk(Partition& part);
  /// Return every partition's chunks to the pool.
  void release_chunks();

  struct InternEntry {
    std::string str;
    std::uint64_t hash = 0;
    std::uint16_t id = 0;
  };

  static constexpr std::size_t kInternSlots = 8192;  // power of two
  static constexpr std::size_t kMaxInterned = kInternSlots / 2;

  static std::vector<TraceRecord> canonicalize(
      const std::vector<const std::vector<TraceRecord>*>& rings);
  static std::string records_to_json(const std::vector<TraceRecord>& canonical,
                                     const std::vector<std::string>& strings);

  const sim::Engine* engine_ = nullptr;
  std::vector<Partition> parts_;

  // Intern table: lock-free probing reads, mutexed inserts.
  std::array<std::atomic<const InternEntry*>, kInternSlots> slots_{};
  std::mutex intern_mu_;
  std::deque<InternEntry> entries_;
  std::vector<std::string> strings_{std::string()};  // id -> string; [0]=""
};

}  // namespace pm2::obs
