#include "nmad/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "simnet/buffer_pool.hpp"
#include "simsan/simsan.hpp"

namespace pm2::nm {

Cluster::Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.nodes < 1) throw std::invalid_argument("Cluster: nodes < 1");
  if (cfg_.rails.empty()) throw std::invalid_argument("Cluster: no rails");
  if (cfg_.partitions < 1) throw std::invalid_argument("Cluster: partitions < 1");
  if (cfg_.workers < 1) throw std::invalid_argument("Cluster: workers < 1");
  if (cfg_.endpoints < 1 || cfg_.endpoints > 255) {
    throw std::invalid_argument("Cluster: endpoints must be in [1, 255]");
  }
  if (cfg_.rx_queues < 1 || cfg_.rx_queues > 256) {
    throw std::invalid_argument("Cluster: rx_queues must be in [1, 256]");
  }

  // Partition the engine before anything schedules an event. The lookahead
  // is the minimum virtual time any packet spends between leaving one
  // node's control (DMA start) and entering another's (rx delivery) --
  // exactly the slack the conservative window synchronization needs.
  const int parts = std::min(cfg_.partitions, cfg_.nodes);
  if (parts > 1) {
    sim::Time lookahead = sim::kTimeInfinity;
    for (const auto& rail : cfg_.rails) {
      lookahead = std::min(lookahead, rail.tx_dma_delay + rail.wire_latency +
                                          rail.rx_deliver_delay);
    }
    if (lookahead <= 0) {
      throw std::invalid_argument(
          "Cluster: partitions > 1 needs a positive minimum wire delay "
          "(tx_dma_delay + wire_latency + rx_deliver_delay) for lookahead");
    }
    engine_.configure_partitions(parts, lookahead);
  }
  engine_.set_workers(cfg_.workers);
  // Shard the partition-aware singletons, and make sure the pool's metric
  // registration happens now, on the setup thread, not mid-run.
  obs::MetricsRegistry::global().set_shards(parts);
  net::BufferPool::global();

  const bool hooks = cfg_.nm.progress == ProgressMode::kPiomanHooks ||
                     cfg_.nm.progress == ProgressMode::kIdleCoreOffload;

  for (std::size_t r = 0; r < cfg_.rails.size(); ++r) {
    fabrics_.push_back(std::make_unique<net::Fabric>(
        engine_, "fabric-" + std::to_string(r)));
  }

  for (int n = 0; n < cfg_.nodes; ++n) {
    // Everything a node owns -- including its NIC's fabric port -- lives in
    // its partition: events the components schedule during construction and
    // operation land in that partition's heap.
    sim::Engine::PartitionScope scope(engine_, partition_of(n));
    auto node = std::make_unique<Node>();
    node->machine = std::make_unique<mach::Machine>(
        engine_, "node" + std::to_string(n), cfg_.topology, cfg_.costs);
    node->sched = std::make_unique<mth::Scheduler>(*node->machine);
    node->pioman = std::make_unique<piom::Server>(*node->sched);
    node->tasklets = std::make_unique<piom::TaskletEngine>(*node->sched);
    node->core =
        std::make_unique<Core>(*node->sched, cfg_.nm, "nm" + std::to_string(n),
                               cfg_.endpoints, cfg_.rx_queues);
    // One NIC per rail. Attach order guarantees port == node index on
    // every fabric, which connect() below relies on.
    for (std::size_t r = 0; r < cfg_.rails.size(); ++r) {
      node->nics.push_back(std::make_unique<net::Nic>(
          *node->machine, *fabrics_[r], cfg_.rails[r]));
      node->core->add_rail(*node->nics.back());
    }
    node->core->attach_tasklets(node->tasklets.get());
    node->core->attach_pioman(node->pioman.get());
    if (hooks) {
      // One progression mechanism at a time: with PIOMan's hooks on,
      // poll_core is where they poll.
      node->pioman->bind_polling(cfg_.nm.poll_core);
      node->pioman->enable_hooks();
    }
    nodes_.push_back(std::move(node));
  }

  // No eager full mesh: gates materialize lazily on first use -- gate(a, b)
  // / Core::gate_to connect on demand, and the rx side creates its peer
  // gate when the first packet from an unknown port arrives; the fabric
  // keeps no per-pair state at all. A 128-node world with sparse traffic
  // therefore constructs in O(nodes + active pairs), not O(nodes^2).
}

Cluster::~Cluster() {
  if (simsan_owner_) {
    // The shards read this cluster's engine clock; detach before it
    // dangles. Findings stay readable (set_enabled(false) does not clear).
    for (int i = 0; i < san::Analyzer::num_shards(); ++i) {
      auto& an = san::Analyzer::shard(i);
      an.set_enabled(false);
      an.set_clock(nullptr);
    }
  }
  // Threads a run left suspended mid-body unwind while every node they
  // refer to is still alive, so what their stacks own is released.
  for (auto& node : nodes_) node->sched->unwind_threads();
}

void Cluster::enable_simsan() {
  san::Analyzer::configure_shards(engine_.num_partitions());
  // Reset/enable every existing shard (shards beyond this engine's
  // partition count simply stay idle): the engine's now() resolves through
  // the calling thread's partition, so each shard stamps findings with its
  // own partition's virtual clock.
  for (int i = 0; i < san::Analyzer::num_shards(); ++i) {
    auto& an = san::Analyzer::shard(i);
    an.reset();
    an.set_clock(&engine_);
    an.set_enabled(true);
  }
  simsan_owner_ = true;
}

obs::TraceLog& Cluster::ensure_trace_log() {
  if (!trace_log_) {
    obs::TraceLog::Options opts;
    opts.partitions = engine_.num_partitions();
    opts.engine = &engine_;
    trace_log_ = std::make_unique<obs::TraceLog>(opts);
  }
  return *trace_log_;
}

void Cluster::run() { engine_.run(); }

obs::TraceLog& Cluster::enable_timeline() {
  obs::TraceLog& log = ensure_trace_log();
  if (!timeline_) {
    timeline_ = true;
    for (int n = 0; n < cfg_.nodes; ++n) {
      log.set_process_name(n, "node " + std::to_string(n));
      nodes_[static_cast<std::size_t>(n)]->sched->set_timeline(&log, n);
      for (std::size_t r = 0; r < cfg_.rails.size(); ++r) {
        const int tid = 64 + static_cast<int>(r);
        log.set_thread_name(n, tid, "nic rail " + std::to_string(r));
        nodes_[static_cast<std::size_t>(n)]->nics[r]->set_timeline(&log, n,
                                                                   tid);
      }
    }
  }
  return log;
}

obs::FlowTracer& Cluster::enable_flow_trace() {
  if (!flow_) {
    flow_ = std::make_unique<obs::FlowTracer>(ensure_trace_log());
    for (int n = 0; n < cfg_.nodes; ++n) {
      nodes_[static_cast<std::size_t>(n)]->core->set_flow_tracer(flow_.get(),
                                                                 n);
    }
  }
  return *flow_;
}

void Cluster::write_timeline(const std::string& path) {
  if (!timeline_) throw std::logic_error("Cluster: timeline not enabled");
  trace_log_->write_json(path);
}

void Cluster::write_trace_binary(const std::string& path) {
  if (!trace_log_) {
    throw std::logic_error(
        "Cluster: trace log not enabled (enable_timeline / "
        "enable_flow_trace)");
  }
  trace_log_->write_binary(path);
}

mth::Thread* Cluster::spawn(int node, std::function<void()> fn,
                            const std::string& name, int bind_core) {
  mth::ThreadAttrs attrs;
  attrs.name = name;
  attrs.bind_core = bind_core;
  // The spawn event must land in the node's partition.
  sim::Engine::PartitionScope scope(engine_, partition_of(node));
  return sched(node).spawn(std::move(fn), attrs);
}

}  // namespace pm2::nm
