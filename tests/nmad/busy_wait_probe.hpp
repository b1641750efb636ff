// What the busy-wait tests (busy_wait_steps_test.cpp, spin_skip_test.cpp)
// pin of a world: its threads' log and the waiting node's counts.
#pragma once

#include <cstdint>
#include <string>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "simthread/exec_context.hpp"

namespace pm2::nm {

/// The log a scenario's threads keep, and the world's counts.
class Probe {
 public:
  explicit Probe(Cluster& world) : world_(world) {
    passes_before_ = passes();
  }

  /// Log (now, @p who).
  void note(int who) {
    log_ += std::to_string(world_.engine().now()) + ":" +
            std::to_string(who) + " ";
  }

  /// The log, then the end time, executed events, node 0's progress passes
  /// and empty polls (every rail), its core 0 busy time and its cache-line
  /// transfers.
  std::string str() const {
    std::uint64_t empty = 0;
    for (int r = 0; r < world_.core(0).num_rails(); ++r) {
      empty += world_.nic(0, r).polls_empty();
    }
    return log_ + "| end " + std::to_string(world_.engine().now()) +
           " events " + std::to_string(world_.engine().events_executed()) +
           " passes " + std::to_string(passes() - passes_before_) +
           " empty " + std::to_string(empty) + " busy " +
           std::to_string(world_.sched(0).core_busy_time(0)) + " lines " +
           std::to_string(world_.machine(0).line_transfers());
  }

 private:
  std::uint64_t passes() const {
    return obs::MetricsRegistry::global()
        .counter_value("nmad", "node0", "progress_passes")
        .value_or(0);
  }

  Cluster& world_;
  std::string log_;
  std::uint64_t passes_before_ = 0;
};

inline void charge(sim::Time t) { mth::ExecContext::current().charge(t); }

}  // namespace pm2::nm
