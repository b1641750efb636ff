// perfbench -- end-to-end benchmark of the simulated MPI+threads stack.
//
// Shared declarations of mtbench: workload inputs, the per-world outcome
// main.cpp aggregates, the delivery checker and the layer probes. See
// README.md for the workloads and metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/time.hpp"

namespace pb {

using pm2::sim::Time;

enum class Workload { kPingpong, kFaninShared, kFaninEndpoints, kHybridApp };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Deterministic 64-bit mixer (splitmix64 finalizer); every seed-derived
/// input and payload byte comes from it.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- delivery checking (checker.cpp) -----------------------------------------

/// Fill @p len bytes with the payload of message (channel, seq). Messages of
/// 8 bytes or more start with the (channel, seq) pair so a misdelivered
/// message can be identified; shorter ones carry pattern bytes only.
void fill_payload(std::uint32_t channel, std::uint32_t seq, std::uint8_t* buf,
                  std::size_t len);

enum class Verdict : std::uint8_t {
  kMissing,     ///< not delivered before the virtual-time cap
  kOk,          ///< right length, right bytes
  kMisordered,  ///< intact payload of another message of the same channel
  kCorrupt,     ///< wrong length or wrong bytes
};

/// Judge the @p got_len bytes delivered to the receive posted for message
/// (channel, seq) of @p expected_len bytes.
Verdict check_payload(std::uint32_t channel, std::uint32_t seq,
                      std::size_t expected_len, const std::uint8_t* buf,
                      std::size_t got_len);

/// Runs the checker over synthetic streams (clean, two deliveries swapped,
/// one flipped byte) and returns an empty string when it reports 0, 2 and
/// 1 failures respectively, else a description of the mismatch.
std::string checker_self_test();

// --- workload inputs and world outcomes (workloads.cpp) ----------------------

/// Everything a world needs, generated from one input seed before the world
/// is built: the program under test only ever sees these values.
struct Inputs {
  Workload workload = Workload::kPingpong;
  /// Message sizes per channel, in send order (one entry per message).
  std::vector<std::vector<std::uint32_t>> sizes;
  /// fanin_*: per-sender start offset; hybrid_app: per (node, thread, iter)
  /// compute slice.
  std::vector<Time> delays;
  /// hybrid_app: per (iter, rank, element) allreduce contributions.
  std::vector<double> contrib;
  int iters = 0;
};

Inputs make_inputs(Workload w, std::uint64_t seed);

/// Worlds per seed: enough that the pooled latency distribution holds at
/// least 1000 messages, so p99 has at least 10 samples beyond it.
int worlds_per_seed(Workload w);

/// One benchmark span, recorded by the benchmark around a call into a layer.
/// Request id = (channel, seq); -1 where the span is not about one message.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;  ///< index in the same node's span list
  std::int32_t channel = -1;
  std::int64_t seq = -1;
  Time v0 = 0, v1 = 0;                ///< virtual ns
  std::int64_t h0 = 0, h1 = 0;        ///< host ns (steady clock)
};

enum SpanName : std::uint16_t {
  kSpanRound,      ///< app.round: one pingpong round trip / BSP iteration
  kSpanIsend,      ///< nmad.isend
  kSpanIrecv,      ///< nmad.irecv
  kSpanWait,       ///< nmad.wait
  kSpanWaitAll,    ///< madmpi.wait_all (halo exchange completion)
  kSpanAllreduce,  ///< madmpi.allreduce_sum
  kSpanBarrier,    ///< sync.barrier
  kSpanWork,       ///< simthread.work (compute slice)
  kSpanCount,
};
const char* span_name(std::uint16_t name);

/// Sums of the registry counters one traced world produced, by layer.
struct LayerCounts {
  double switches = 0, hook_runs = 0;
  double lock_acq = 0, lock_cont = 0, lock_hold_ns = 0;
  double polls_hit = 0, polls_empty = 0, tx_packets = 0, tx_bytes = 0;
  double rxq_depth_max = 0, pool_hits = 0, pool_misses = 0;
  double piom_passes = 0, piom_skipped = 0, tasklet_runs = 0;
  double piom_interval_sum = 0, piom_interval_n = 0;
  double progress_passes = 0, steals = 0, unexpected = 0, chunks_rx = 0;
  double packets_rx = 0, rdv = 0, bytes_copied = 0;

  void add(const LayerCounts& o);
};

/// Parse MetricsRegistry::to_json() output into per-layer sums.
LayerCounts layer_counts_from_registry(const std::string& json);

struct WorldOutcome {
  double run_s = 0;    ///< host: wall time of the engine run
  double cpu_s = 0;    ///< host: process CPU time during the run
  bool threw = false;
  bool collective_ok = true;  ///< hybrid_app: every allreduce result right
  Time cap = 0;               ///< virtual-time cap the world ran under
  /// Per channel, per message: virtual post and completion time, verdict.
  struct Msg {
    Time post = -1;
    Time done = -1;
    Verdict verdict = Verdict::kMissing;
  };
  std::vector<std::vector<Msg>> msgs;
  std::uint64_t events = 0, windows = 0, cross = 0, overflows = 0;
  // Traced worlds only.
  LayerCounts counts;
  std::vector<double> flow_us[5];  ///< pack/submit/wire/unpack/notify
  std::vector<std::vector<Span>> spans;  ///< per node
  std::vector<double> span_vus[kSpanCount];  ///< span durations (virtual us)

  std::size_t attempted() const;
  std::size_t failed() const;
  std::size_t delivered() const;
  /// First post to last completion (cap-bounded when messages are missing).
  Time makespan() const;
  /// The virtual results the determinism checks compare.
  bool same_virtual(const WorldOutcome& o) const;
};

/// Build, run and check one world. @p traced turns on the metrics registry,
/// the flow tracer and the benchmark's own spans. @p workers only applies to
/// the partitioned hybrid_app world.
WorldOutcome run_world(const Inputs& in, bool traced, int workers);

/// Host threads hybrid_app's partitioned engine uses in the timed runs.
inline constexpr int kHybridWorkers = 4;

/// Host seconds to build one world (Cluster constructor + spawns). The world
/// is torn down unrun, untimed.
double setup_s(const Inputs& in);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer metrics (layers.cpp) of one seed's traced worlds, normalised
/// per checked message; zero where a workload bypasses the layer.
std::vector<Metric> layer_metrics(const std::vector<WorldOutcome>& traced);

// --- layer probes (probes.cpp) -----------------------------------------------

struct ProbeResult {
  std::string name;
  double median_ns = 0;
  double spread = 0;  ///< (q3 - q1) / median over the repetitions
};

/// Time each layer's public functions with no world around them.
std::vector<ProbeResult> run_probes();

// --- small statistics helpers (main.cpp) -------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// (q1, q3) with the same interpolation as Python's statistics.quantiles.
std::pair<double, double> quartiles(std::vector<double> v);

}  // namespace pb
