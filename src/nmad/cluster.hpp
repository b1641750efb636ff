// pm2sim -- Cluster: one-call construction of a whole virtual testbed.
//
// A Cluster owns the engine, the per-node machine/scheduler/PIOMan/tasklet
// stacks, the fabrics (one per rail), the NICs, and the per-node
// NewMadeleine cores. Any node can reach any other: a gate is connected on
// first use (Core::gate_to), so only the pairs that talk hold state. This
// is what benchmarks, examples and integration tests build.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nmad/core.hpp"
#include "obs/flow.hpp"
#include "obs/trace_log.hpp"
#include "pioman/server.hpp"
#include "pioman/tasklet.hpp"
#include "simcore/engine.hpp"
#include "simmachine/machine.hpp"
#include "simnet/nic.hpp"
#include "simthread/scheduler.hpp"

namespace pm2::nm {

struct ClusterConfig {
  int nodes = 2;
  mach::CacheTopology topology = mach::CacheTopology::quad_core();
  mach::CostBook costs = mach::CostBook::xeon_quad();
  /// One entry per rail; every node gets one NIC per rail.
  std::vector<net::NicParams> rails = {net::NicParams::myri10g()};
  Config nm;
  /// Scalable endpoints per node, in [1, 255] (the endpoint id travels in
  /// 8 bits of the chunk header). 1 (default) is the paper's single shared
  /// library instance. With N > 1, every node's core instantiates its
  /// collect lists, tag-matching tables and per-rail transfer lists N
  /// times; sends and exact-tag receives route to endpoint `tag % N`, so
  /// threads using distinct tags share no locked state.
  int endpoints = 1;
  /// RX completion queues per NIC, in [1, 256]. 1 (default) is the classic
  /// single completion queue, with all endpoints draining through one
  /// serialized poll path. With M > 1, arriving packets are steered
  /// RSS-style by their wire-format endpoint id into ring `ep % M`, and
  /// each endpoint's progress drains its own ring with no shared lock. A
  /// core configures min(M, endpoints) rings: the rest would stay empty.
  int rx_queues = 1;
  /// Engine partitioning: the nodes are spread over this many event-heap
  /// partitions (node n lives in partition n % partitions; clamped to the
  /// node count), synchronized with conservative lookahead equal to the
  /// minimum rail wire delay. 1 (default) is the reference single-heap
  /// engine. NOTE: the partition count is part of the schedule -- compare
  /// results at equal partition counts.
  int partitions = 1;
  /// Host worker threads executing the partitions (clamped to the
  /// partition count). Any value produces the identical schedule; > 1 uses
  /// real threads.
  int workers = 1;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  int num_nodes() const { return cfg_.nodes; }

  /// Engine partition hosting @p node (0 when unpartitioned).
  int partition_of(int node) const {
    const int p = engine_.num_partitions();
    return p > 1 ? node % p : 0;
  }

  mach::Machine& machine(int node) { return *nodes_.at(static_cast<std::size_t>(node))->machine; }
  mth::Scheduler& sched(int node) { return *nodes_.at(static_cast<std::size_t>(node))->sched; }
  piom::Server& pioman(int node) { return *nodes_.at(static_cast<std::size_t>(node))->pioman; }
  piom::TaskletEngine& tasklets(int node) { return *nodes_.at(static_cast<std::size_t>(node))->tasklets; }
  Core& core(int node) { return *nodes_.at(static_cast<std::size_t>(node))->core; }
  net::Nic& nic(int node, int rail) {
    return *nodes_.at(static_cast<std::size_t>(node))->nics.at(static_cast<std::size_t>(rail));
  }

  /// Gate from @p node to @p peer.
  Gate* gate(int node, int peer) { return core(node).gate_to(peer); }

  /// Spawn a simulated thread on a node (optionally bound to a core).
  mth::Thread* spawn(int node, std::function<void()> fn,
                     const std::string& name = "app", int bind_core = -1);

  /// Run the world to completion (all threads finished, events drained).
  void run();

  /// Start recording a Chrome-trace timeline (thread spans per core, NIC
  /// tx/rx) into the cluster's trace log, and return that log.
  obs::TraceLog& enable_timeline();

  /// Write the recorded timeline as Chrome trace-event JSON
  /// (enable_timeline() must have been called).
  void write_timeline(const std::string& path);

  /// Start flow-tracing every message's lifecycle across the cluster into
  /// the cluster's trace log. With the timeline enabled too, the stamps
  /// render as send -> recv arrows in Perfetto.
  obs::FlowTracer& enable_flow_trace();

  obs::FlowTracer* flow_trace() { return flow_.get(); }

  /// The trace log behind the timeline and the flow tracer (null until
  /// one of them is enabled).
  obs::TraceLog* trace_log() { return trace_log_.get(); }

  /// Write the captured records as a compact binary log (convert offline
  /// with tools/trace2json).
  void write_trace_binary(const std::string& path);

  /// Start a fresh simsan analysis run over this world: resets the analyzer
  /// shards (one per engine partition), routes report timestamps to this
  /// cluster's virtual clock and enables all event taps. Findings accumulate
  /// per shard (read merged via san::Analyzer::merged_print_report /
  /// merged_report_json, or san::Analyzer::global() in single-partition
  /// worlds) and in the "simsan" metrics-registry counters until the next
  /// enable/reset. The analyzer is process-global: analyze one world at a
  /// time. Disabled again when this cluster is destroyed.
  void enable_simsan();

 private:
  struct Node {
    std::unique_ptr<mach::Machine> machine;
    std::unique_ptr<mth::Scheduler> sched;
    std::unique_ptr<piom::Server> pioman;
    std::unique_ptr<piom::TaskletEngine> tasklets;
    std::unique_ptr<Core> core;
    std::vector<std::unique_ptr<net::Nic>> nics;
  };

  obs::TraceLog& ensure_trace_log();

  ClusterConfig cfg_;
  sim::Engine engine_;
  std::vector<std::unique_ptr<net::Fabric>> fabrics_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Destroyed after the flow tracer that feeds it records.
  std::unique_ptr<obs::TraceLog> trace_log_;
  bool timeline_ = false;  ///< enable_timeline() has run
  std::unique_ptr<obs::FlowTracer> flow_;
  bool simsan_owner_ = false;  ///< we enabled the analyzer; detach in dtor
};

}  // namespace pm2::nm
