// pm2sim -- shared benchmark harness.
//
// Reproduces the paper's measurement methodology: pingpong tests between
// two nodes, reporting one-way latency (half the round-trip) per message
// size, median over many iterations on the deterministic virtual clock.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "simexplore/explore.hpp"

namespace pm2::bench {

/// Message sizes used by Figs. 3/5/6/7/8: 1 B .. 2 KB, powers of two.
std::vector<std::size_t> small_sizes();

/// Fig. 9 sizes: 2 KB .. 32 KB.
std::vector<std::size_t> overlap_sizes();

struct PingpongOptions {
  int iters = 200;
  int warmup = 20;
  /// Core the application thread binds to on both nodes (-1 = unbound).
  int app_core = 0;
  /// Spawn dedicated progression threads (ProgressMode::kPollThread).
  bool poll_threads = false;
  /// Virtual compute time inserted between isend and wait (Fig. 9).
  sim::Time compute_phase = 0;
  /// Number of concurrent pingpong thread pairs (Fig. 5); threads are bound
  /// to cores app_core, app_core+1, ...
  int streams = 1;
};

struct Series {
  std::string label;
  /// Median one-way latency in microseconds, one entry per size; for
  /// multi-stream runs, per-stream medians are averaged.
  std::vector<double> latency_us;
  /// Per-stream medians (streams x sizes), for Fig. 5-style reporting.
  std::vector<std::vector<double>> per_stream_us;
};

/// Run a pingpong sweep over @p sizes with the given cluster config.
Series run_pingpong(const std::string& label, const nm::ClusterConfig& cfg,
                    const std::vector<std::size_t>& sizes,
                    const PingpongOptions& opt);

/// Print a paper-style table: size column + one column per series.
void print_table(const std::string& title, const std::vector<std::size_t>& sizes,
                 const std::vector<Series>& series);

/// Write the same data as CSV to @p path (empty = skip).
void write_csv(const std::string& path, const std::vector<std::size_t>& sizes,
               const std::vector<Series>& series);

/// Tiny argv parser shared by the figure benches: recognizes
/// --iters=N, --warmup=N, --csv=PATH, --metrics-out=PATH, --simsan=on|off,
/// --partitions=N, --workers=N, --endpoints=N, --rx-queues=N,
/// --explore=K, --explore-budget=N, --explore-out=PATH, --replay=FILE,
/// --spin-backoff=on|off.
struct BenchArgs {
  int iters = 200;
  int warmup = 20;
  /// Engine partitions / host worker threads for every world the bench
  /// builds (ClusterConfig::partitions/workers). Defaults 1/1 = the
  /// single-threaded reference engine. At a fixed partition count, results
  /// are byte-identical for any worker count.
  int partitions = 1;
  int workers = 1;
  /// nmad endpoints per node (ClusterConfig::endpoints). Default 1 = the
  /// single shared library instance; figure outputs are byte-identical to
  /// a build without endpoint support at 1.
  int endpoints = 1;
  /// RX completion queues per NIC (ClusterConfig::rx_queues). Default 1 =
  /// the classic serialized single-queue drain; figure outputs are
  /// byte-identical to a build without multi-queue support at 1.
  int rx_queues = 1;
  std::string csv;
  /// When set, run one instrumented pingpong after the sweep and write a
  /// metrics + flow-stage report (JSON) here, plus a Perfetto timeline with
  /// send->recv flow arrows at <PATH>.trace.json and the binary trace log
  /// at <PATH>.trace.bin.
  std::string metrics_out;
  /// --simsan=on: after the sweep, run a concurrency-analysis pingpong per
  /// configuration and print the simsan report. Off by default; the figure
  /// sweeps themselves always run unanalyzed, so CSV output is identical
  /// either way.
  bool simsan = false;
  /// --explore=K: after the sweep, explore the schedule space of the
  /// analysis pingpong per configuration with preemption bound K (0 = the
  /// default schedule only). -1 (default) = off; the figure sweeps
  /// themselves always run unexplored.
  int explore = -1;
  /// --explore-budget=N: total schedules per exploration.
  int explore_budget = 200;
  /// --explore-out=PATH: append each exploration's JSON report here
  /// (truncated on the first write of a process).
  std::string explore_out;
  /// --replay=FILE: re-execute every PM2XPL1 token in FILE whose label
  /// matches the configuration being reported (byte-identical re-run of a
  /// failing schedule).
  std::string replay;
  /// --spin-backoff=off: pin contended spin backoff off
  /// (CostBook::spin_backoff_onset) so exploration reaches the
  /// pre-backoff interleavings: bounded exponential backoff perturbs
  /// exactly the starvation limit cycles the explorer's liveness monitor
  /// exists to certify (EXPERIMENTS.md "Progress collapse"). Default keeps
  /// the topology preset.
  bool spin_backoff_off = false;
};
BenchArgs parse_args(int argc, char** argv);

/// Copy the parallel-engine knobs (--partitions/--workers) into a cluster
/// config. Every fig bench calls this on each config it builds so existing
/// sweeps can opt in from the command line.
void apply_parallel(const BenchArgs& args, nm::ClusterConfig& cfg);

/// Honour --simsan=on: run a two-stream blocking pingpong on @p cfg under
/// the simsan analyzer (a separate world, after the sweep) and print the
/// findings report to stdout. Two streams sharing each node's gate is the
/// smallest workload where LockMode::kNone provably races on the collect
/// and matching lists. No-op when args.simsan is false. Returns the number
/// of findings (0 when disabled).
std::size_t run_simsan_report(const BenchArgs& args, const std::string& label,
                              const nm::ClusterConfig& cfg);

/// The analysis pingpong as an explorable scenario: @p streams blocking
/// pingpong streams sharing core 0 on each node of a world built from
/// @p cfg, analyzed under simsan with the liveness monitor armed. This is
/// the same workload run_simsan_report runs once on the default schedule.
xpl::Scenario make_pingpong_scenario(const nm::ClusterConfig& cfg,
                                     int streams = 2, int iters = 50);

/// Honour --explore=K / --replay=FILE: explore the analysis pingpong's
/// schedule space on @p cfg (printing the aggregated report, appending
/// JSON to --explore-out) and/or re-execute matching replay tokens from
/// --replay. Returns the number of aggregated finding sites (0 when both
/// are off).
std::size_t run_explore_report(const BenchArgs& args, const std::string& label,
                               const nm::ClusterConfig& cfg);

/// Honour --metrics-out: enable the metrics registry, run a short pingpong
/// on @p cfg with flow tracing and timeline recording, write the combined
/// report, then disable the registry again so figure sweeps stay
/// metrics-free. No-op when args.metrics_out is empty.
void write_metrics_report(const BenchArgs& args, const nm::ClusterConfig& cfg);

}  // namespace pm2::bench
