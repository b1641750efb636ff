// pm2sim -- the trace recorder: per-partition trace rings, a binary log
// format, and the canonical merge to Chrome trace-event JSON.
//
// TraceLog is the one recording path for timeline events (scheduler spans,
// hook time, NIC tx/rx) and flow-lifecycle stamps, over one TraceRing per
// engine partition. The producer path (push) is the partition's host
// worker: it stamps the record with the partition clock (`emit`), routes by
// sim::tls_partition and does one lock-free SPSC ring write -- no mutex, no
// formatting, no allocation. Strings cross the boundary as u16 ids from a
// lock-free-read intern table (insert-locked, first sight of a string only).
//
// Drain side -- two ways to empty the rings, both serialized per ring by a
// consumer mutex:
//   * inline spill (default): when a producer finds its own ring full it
//     drains it into that ring's spill vector itself. Lossless and
//     deterministic -- the spill happens at the same virtual-time point in
//     every run -- and safe because within a partition there is exactly one
//     producer thread at a time.
//   * drain_now(): end-of-run (Cluster::run) and read-side calls.
//
// Overflow::kDrop makes the full-ring case drop-with-counter instead
// (`obs.trace.dropped` on the MetricsRegistry plus a per-ring count): at a
// fixed capacity the drop set is a pure virtual-time property, so it is
// byte-for-byte reproducible across runs and worker counts.
//
// The canonical order that makes every export byte-stable at any worker
// count: records sort by (emit, ring, seq) -- `emit` is partition-clock
// virtual time, ring is the partition id, seq the push order within the
// ring, all host-schedule-independent. For a single-partition world this
// order *is* push order.
//
// write_binary() spills everything to a compact log (48 B/record + string
// table + per-ring sequence headers); tools/trace2json converts offline via
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
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "simcore/engine.hpp"

namespace pm2::obs {

class TraceLog {
 public:
  enum class Overflow {
    kSpill,  ///< producer self-drains its full ring (lossless)
    kDrop,   ///< full ring drops-with-counter (deterministic drops)
  };

  struct Options {
    int rings = 1;                 ///< one per engine partition
    std::size_t capacity = 4096;   ///< records per ring (rounded up to 2^k)
    Overflow overflow = Overflow::kSpill;
    const sim::Engine* engine = nullptr;  ///< stamps `emit`; may be null
  };

  TraceLog() { configure(Options{}); }
  explicit TraceLog(const Options& opts) { configure(opts); }
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// (Re)build the rings. Not callable while producers are active;
  /// discards previously captured records.
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

  /// The producer hot path, inline: route by partition, stamp the partition
  /// clock, one SPSC ring write. The full-ring case is the out-of-line
  /// push_overflow (self-spill or drop-with-counter).
  void push(TraceRecord r) {
    r.emit = engine_ != nullptr ? engine_->now() : 0;
    push_prestamped(r);
  }

  /// push() for producers that already hold the partition clock: @p r.emit
  /// must be set to the partition's current virtual time. Skips the
  /// engine->now() lookup (flow stamps pass their stamp time, which *is*
  /// the partition clock at the stamp site).
  void push_prestamped(const TraceRecord& r) {
    auto p = static_cast<std::size_t>(sim::tls_partition);
    if (p >= rings_.size()) p = 0;
    Ring& ring = *rings_[p];
    if (ring.ring.try_push(r)) [[likely]] return;
    push_overflow(ring, r);
  }

  // --- drain and results ----------------------------------------------------
  //
  // Calls that read records drain the rings first, so make them after the
  // run.

  /// Drain every ring into its spill store (any thread; serialized per ring).
  void drain_now();

  /// Total records captured so far.
  std::size_t record_count();

  std::size_t ring_count() const { return rings_.size(); }

  /// Records dropped on full rings so far (sum over rings).
  std::uint64_t dropped() const;
  std::uint64_t ring_dropped(int ring) const;

  /// Every record merged in canonical (emit, ring, seq) order -- the
  /// byte-stable export order.
  std::vector<TraceRecord> canonical_records();

  /// Render everything captured so far as Chrome trace-event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev) in canonical order.
  std::string to_json();

  /// Write to_json() to @p path; throws on I/O failure.
  void write_json(const std::string& path);

  /// Everything needed to interpret a log outside this process.
  struct Data {
    std::vector<std::vector<TraceRecord>> rings;
    std::vector<std::string> strings;
    std::vector<std::uint64_t> dropped;
    std::size_t record_count() const {
      std::size_t n = 0;
      for (const auto& r : rings) n += r.size();
      return n;
    }
  };

  /// Spill everything and write the compact binary log; throws on I/O
  /// failure. Layout: header, per-ring sequence headers (count, first seq,
  /// dropped), raw records per ring, string table.
  void write_binary(const std::string& path);

  /// Parse a binary log; throws std::runtime_error on malformed input,
  /// including counts that claim more bytes than the file holds (checked
  /// before anything is allocated for them).
  static Data read_binary(const std::string& path);

  /// Canonical-merge @p data and render the JSON -- byte-identical to what
  /// to_json() produced in the process that wrote the log.
  static std::string data_to_json(const Data& data);

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : ring(cap) {}
    TraceRing ring;
    std::mutex consume_mu;              ///< serializes pop_n callers
    std::vector<TraceRecord> spill;     ///< drained records, push order
    std::atomic<std::uint64_t> dropped{0};
  };

  struct InternEntry {
    std::string str;
    std::uint64_t hash = 0;
    std::uint16_t id = 0;
  };

  static constexpr std::size_t kInternSlots = 8192;  // power of two
  static constexpr std::size_t kMaxInterned = kInternSlots / 2;

  void push_overflow(Ring& ring, const TraceRecord& r);
  void spill_ring(Ring& r);
  static std::vector<TraceRecord> canonicalize(
      const std::vector<const std::vector<TraceRecord>*>& rings);
  static std::string records_to_json(const std::vector<TraceRecord>& canonical,
                                     const std::vector<std::string>& strings);

  Overflow overflow_ = Overflow::kSpill;
  const sim::Engine* engine_ = nullptr;
  std::vector<std::unique_ptr<Ring>> rings_;
  Counter dropped_metric_;  ///< obs.trace.dropped

  // Intern table: lock-free probing reads, mutexed inserts.
  std::array<std::atomic<const InternEntry*>, kInternSlots> slots_{};
  std::mutex intern_mu_;
  std::deque<InternEntry> entries_;
  std::vector<std::string> strings_{std::string()};  // id -> string; [0]=""
};

}  // namespace pm2::obs
