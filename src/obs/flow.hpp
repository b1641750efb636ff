// pm2sim -- message-lifecycle flow tracing.
//
// Each nmad request carries a flow id; the Core stamps the flow at every
// lifecycle stage it passes through:
//
//   kPost     isend accepted the message (collect layer, sender)
//   kArrange  the strategy arranged it into a staged packet (optimization)
//   kNicPost  the driver handed the packet to the NIC (transfer)
//   kWireDone the wire absorbed the last chunk (sender buffer reusable)
//   kDeliver  the last chunk landed in the receive buffer (receiver)
//   kComplete the receive request completed (notification done)
//
// Because every node shares one virtual clock, sender- and receiver-side
// stamps are directly comparable: the tracer derives a per-stage latency
// breakdown (pack / submit / wire / unpack / notify SampleSets) whose
// segments telescope exactly to the end-to-end latency. Stamps are records
// in the tracer's TraceLog, whose JSON rendering turns them into flow
// events (ph "s"/"t"/"f") so Perfetto draws send -> recv arrows across node
// tracks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace_log.hpp"
#include "simcore/stats.hpp"
#include "simcore/time.hpp"

namespace pm2::obs {

enum class FlowStage : int {
  kPost = 0,
  kArrange = 1,
  kNicPost = 2,
  kWireDone = 3,
  kDeliver = 4,
  kComplete = 5,
};

inline constexpr int kFlowStageCount = 6;

const char* flow_stage_name(FlowStage stage);

/// Name of the latency segment ending at stage @p i (1..5):
/// pack, submit, wire, unpack, notify.
const char* flow_segment_name(int i);

class FlowTracer {
 public:
  /// Stamps go to @p log, which must outlive the tracer.
  explicit FlowTracer(TraceLog& log) : log_(log) {}
  FlowTracer(const FlowTracer&) = delete;
  FlowTracer& operator=(const FlowTracer&) = delete;

  /// Deterministic flow id both sides can compute without a wire-format
  /// change: the (src, dst, per-gate message seq) triple is unique per
  /// message and known to sender (at isend) and receiver (at match).
  static std::uint64_t flow_id(int src_node, int dst_node,
                               std::uint32_t msg_seq) {
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src_node))
            << 48) |
           (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst_node))
            << 32) |
           msg_seq;
  }

  /// Record that flow @p id reached @p stage at virtual time @p t on
  /// (node, core). Multi-chunk messages stamp a stage repeatedly; the last
  /// stamp wins (stages mean "the *message* finished this stage"), while
  /// the flow-arrow event binds to the first stamp only. Hot path, inline:
  /// one lock-free ring push, so partitions on different host threads
  /// stamp concurrently (each (id, stage) still comes from one partition,
  /// so last-stamp-wins stays deterministic). The read/export methods
  /// rebuild the aggregation from the log's canonical record order when
  /// records arrived since the last read -- call them after the run, from
  /// one thread, and call find() again after further stamps.
  void stamp(std::uint64_t id, FlowStage stage, sim::Time t, int node,
             int core) {
    TraceRecord r;
    r.ts = t;
    r.emit = t;  // stamp sites pass the partition clock as @p t
    r.dur = static_cast<std::int64_t>(stage);
    r.id = id;
    r.pid = node;
    r.tid = core;
    r.phase = kFlowStampPhase;
    log_.push_prestamped(r);
  }

  struct Flow {
    std::uint64_t id = 0;
    sim::Time ts[kFlowStageCount] = {};
    bool seen[kFlowStageCount] = {};
    bool complete() const {
      for (bool b : seen)
        if (!b) return false;
      return true;
    }
  };

  std::size_t flow_count() const;
  std::size_t completed_count() const;
  /// First-stamp order in the log's canonical record order.
  const std::vector<std::uint64_t>& ids() const;
  /// nullptr if @p id was never stamped.
  const Flow* find(std::uint64_t id) const;

  struct Segment {
    std::string name;
    sim::SampleSet us;  ///< segment latency in microseconds
  };

  /// Per-stage latency breakdown over completed flows. Segments telescope:
  /// their sum equals end_to_end_us() flow by flow (up to fp rounding).
  std::vector<Segment> breakdown() const;

  /// kPost -> kComplete latency (microseconds) over completed flows.
  sim::SampleSet end_to_end_us() const;

  /// {"schema":...,"flows":N,"completed":N,"stages":[{name,count,p50,...}]}.
  std::string to_json() const;

  /// Aligned human-readable breakdown table.
  std::string to_table() const;

 private:
  /// Flow ids sorted by (kPost stamp time, id): a virtual-time property,
  /// so aggregate statistics accumulate in the same order -- and float the
  /// same way -- no matter how many host threads ran the simulation.
  std::vector<std::uint64_t> canonical_order() const;

  /// Rebuild flows_/order_ from the log's canonical record order if
  /// records arrived since the last ingest.
  void ensure_ingested() const;

  TraceLog& log_;
  mutable std::unordered_map<std::uint64_t, Flow> flows_;
  mutable std::vector<std::uint64_t> order_;
  mutable std::size_t ingested_ = static_cast<std::size_t>(-1);
};

}  // namespace pm2::obs
