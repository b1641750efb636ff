// Per-layer metrics of a traced run: registry counters, engine counters,
// flow-tracer segments and the benchmark's own spans, normalised per
// checked message.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "bench.hpp"

namespace pb {
namespace {

std::string str_field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":\"";
  const auto p = line.find(k);
  if (p == std::string::npos) return {};
  const auto b = p + k.size();
  return line.substr(b, line.find('"', b) - b);
}

double num_field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const auto p = line.find(k);
  return p == std::string::npos ? 0.0
                                : std::strtod(line.c_str() + p + k.size(), nullptr);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void LayerCounts::add(const LayerCounts& o) {
  switches += o.switches;
  hook_runs += o.hook_runs;
  lock_acq += o.lock_acq;
  lock_cont += o.lock_cont;
  lock_hold_ns += o.lock_hold_ns;
  polls_hit += o.polls_hit;
  polls_empty += o.polls_empty;
  tx_packets += o.tx_packets;
  tx_bytes += o.tx_bytes;
  rxq_depth_max = std::max(rxq_depth_max, o.rxq_depth_max);
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  piom_passes += o.piom_passes;
  piom_skipped += o.piom_skipped;
  tasklet_runs += o.tasklet_runs;
  piom_interval_sum += o.piom_interval_sum;
  piom_interval_n += o.piom_interval_n;
  progress_passes += o.progress_passes;
  steals += o.steals;
  unexpected += o.unexpected;
  chunks_rx += o.chunks_rx;
  packets_rx += o.packets_rx;
  rdv += o.rdv;
  bytes_copied += o.bytes_copied;
}

LayerCounts layer_counts_from_registry(const std::string& json) {
  // MetricsRegistry::to_json() writes one instrument per line, counters
  // first, then gauges, then histograms.
  enum { kCounters, kGauges, kHists } section = kCounters;
  LayerCounts c;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"gauges\":[") != std::string::npos) section = kGauges;
    if (line.find("\"histograms\":[") != std::string::npos) section = kHists;
    if (line.rfind("{\"component\":", 0) != 0) continue;
    const std::string comp = str_field(line, "component");
    const std::string name = str_field(line, "name");
    if (section == kGauges) {
      if (comp == "nic" && ends_with(name, "depth")) {
        c.rxq_depth_max = std::max(c.rxq_depth_max, num_field(line, "max"));
      }
      continue;
    }
    if (section == kHists) {
      if (comp == "pioman" && name == "poll_interval_ns") {
        c.piom_interval_sum += num_field(line, "sum");
        c.piom_interval_n += num_field(line, "count");
      }
      continue;
    }
    const double v = num_field(line, "value");
    if (comp == "sched") {
      if (name == "context_switches") c.switches += v;
      if (ends_with(name, "_hook_runs")) c.hook_runs += v;
    } else if (comp == "sync") {
      if (ends_with(name, ".acquisitions")) c.lock_acq += v;
      if (ends_with(name, ".contentions")) c.lock_cont += v;
      if (ends_with(name, ".hold_ns")) c.lock_hold_ns += v;
    } else if (comp == "nic") {
      if (ends_with(name, ".polls_hit")) c.polls_hit += v;
      if (ends_with(name, ".polls_empty")) c.polls_empty += v;
      if (ends_with(name, ".tx_packets")) c.tx_packets += v;
      if (ends_with(name, ".tx_bytes")) c.tx_bytes += v;
    } else if (comp == "pool") {
      if (name == "hits") c.pool_hits += v;
      if (name == "misses") c.pool_misses += v;
    } else if (comp == "pioman") {
      if (name == "poll_passes") c.piom_passes += v;
      if (name == "skipped_passes") c.piom_skipped += v;
      if (name == "tasklet_runs") c.tasklet_runs += v;
    } else if (comp == "nmad") {
      if (name == "progress_passes") c.progress_passes += v;
      if (name == "unexpected_chunks") c.unexpected += v;
      if (name == "chunks_rx") c.chunks_rx += v;
      if (name == "packets_rx") c.packets_rx += v;
      if (name == "rdv_handshakes") c.rdv += v;
      if (name == "data.bytes_copied") c.bytes_copied += v;
    } else if (comp == "nmad.ep") {
      if (name == "steals") c.steals += v;
    }
  }
  return c;
}

std::vector<Metric> layer_metrics(const std::vector<WorldOutcome>& traced) {
  LayerCounts c;
  double msgs = 0, events = 0, windows = 0, cross = 0, overflows = 0;
  std::vector<double> flow[5], span_us[kSpanCount];
  for (const WorldOutcome& w : traced) {
    c.add(w.counts);
    msgs += static_cast<double>(w.attempted());
    events += static_cast<double>(w.events);
    windows += static_cast<double>(w.windows);
    cross += static_cast<double>(w.cross);
    overflows += static_cast<double>(w.overflows);
    for (int i = 0; i < 5; ++i) {
      flow[i].insert(flow[i].end(), w.flow_us[i].begin(), w.flow_us[i].end());
    }
    for (int i = 0; i < kSpanCount; ++i) {
      span_us[i].insert(span_us[i].end(), w.span_vus[i].begin(), w.span_vus[i].end());
    }
  }
  const double worlds = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  auto per_msg = [msgs](double v) { return ratio(v, msgs); };
  auto p50 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : percentile(v, 50);
  };
  return {
      {"simcore.events_per_msg", per_msg(events), "count/msg"},
      {"simcore.windows_per_msg", per_msg(windows), "count/msg"},
      {"simcore.events_per_window", ratio(events, windows), "count"},
      {"simcore.cross_events_per_msg", per_msg(cross), "count/msg"},
      {"simcore.mailbox_overflows", overflows / worlds, "count/world"},
      {"simthread.switches_per_msg", per_msg(c.switches), "count/msg"},
      {"simthread.hook_runs_per_msg", per_msg(c.hook_runs), "count/msg"},
      {"sync.acquisitions_per_msg", per_msg(c.lock_acq), "count/msg"},
      {"sync.contention_ratio", ratio(c.lock_cont, c.lock_acq), "ratio"},
      {"sync.hold_vns_per_msg", per_msg(c.lock_hold_ns), "ns/msg"},
      {"simnet.polls_per_msg", per_msg(c.polls_hit + c.polls_empty), "count/msg"},
      {"simnet.poll_hit_ratio", ratio(c.polls_hit, c.polls_hit + c.polls_empty), "ratio"},
      {"simnet.packets_per_msg", per_msg(c.tx_packets), "count/msg"},
      {"simnet.wire_bytes_per_msg", per_msg(c.tx_bytes), "B/msg"},
      {"simnet.rxq_depth_max", c.rxq_depth_max, "count"},
      {"simnet.pool_hit_ratio", ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio"},
      {"pioman.poll_passes_per_msg", per_msg(c.piom_passes), "count/msg"},
      {"pioman.skipped_ratio", ratio(c.piom_skipped, c.piom_passes), "ratio"},
      {"pioman.tasklet_runs_per_msg", per_msg(c.tasklet_runs), "count/msg"},
      {"pioman.poll_interval_vns_mean", ratio(c.piom_interval_sum, c.piom_interval_n), "ns"},
      {"nmad.progress_passes_per_msg", per_msg(c.progress_passes), "count/msg"},
      {"nmad.steals_per_msg", per_msg(c.steals), "count/msg"},
      {"nmad.unexpected_ratio", ratio(c.unexpected, c.chunks_rx), "ratio"},
      {"nmad.chunks_per_packet", ratio(c.chunks_rx, c.packets_rx), "ratio"},
      {"nmad.rdv_per_msg", per_msg(c.rdv), "count/msg"},
      {"nmad.bytes_copied_per_msg", per_msg(c.bytes_copied), "B/msg"},
      {"nmad.flow.pack_vus_p50", p50(flow[0]), "us"},
      {"nmad.flow.submit_vus_p50", p50(flow[1]), "us"},
      {"nmad.flow.wire_vus_p50", p50(flow[2]), "us"},
      {"nmad.flow.unpack_vus_p50", p50(flow[3]), "us"},
      {"nmad.flow.notify_vus_p50", p50(flow[4]), "us"},
      {"nmad.isend_vus_p50", p50(span_us[kSpanIsend]), "us"},
      {"nmad.wait_vus_p50", p50(span_us[kSpanWait]), "us"},
      {"madmpi.allreduce_vus_p50", p50(span_us[kSpanAllreduce]), "us"},
      {"madmpi.halo_vus_p50", p50(span_us[kSpanWaitAll]), "us"},
  };
}

}  // namespace pb
