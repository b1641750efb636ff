// mtbench: runs one workload from one seed for a host-time budget,
// checks every delivered message and the determinism contract, and prints
// the metrics. The last line of stdout is the JSON result.
//
//   mtbench --workload NAME --seed N --seconds S --trace 0|1 [--spans DIR]
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 the
// per-layer metrics of a traced run (registry, flow tracer and benchmark
// spans on), the layer probes, and the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::pair<double, double> quartiles(std::vector<double> v) {
  // Python's statistics.quantiles(v, n=4), method 'exclusive'.
  if (v.size() < 2) return {median(v), median(v)};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  auto q = [&](long i) {
    long j = i * (ld + 1) / 4;
    j = std::clamp(j, 1L, ld - 1);
    const double delta = static_cast<double>(i * (ld + 1) - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
            v[static_cast<std::size_t>(j)] * delta) / 4;
  };
  return {q(1), q(3)};
}

}  // namespace pb

namespace {

using namespace pb;
using Clock = std::chrono::steady_clock;

struct Options {
  Workload workload = Workload::kPingpong;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_dir;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "mtbench: %s\nusage: mtbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans DIR]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage("unknown workload " + v);
      o.workload = *w;
      have_w = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_s = end != v.c_str() && *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_t = true;
    } else if (a == "--spans") {
      o.spans_dir = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (!have_w || !have_seed || !have_s || !have_t) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

struct Tally {
  std::size_t attempted = 0, failed = 0;
  std::size_t missing = 0, misordered = 0, corrupt = 0, bad_worlds = 0;
  void add(const WorldOutcome& o) {
    attempted += o.attempted();
    failed += o.failed();
    bad_worlds += o.threw || !o.collective_ok;
    for (const auto& ch : o.msgs) {
      for (const auto& m : ch) {
        missing += m.verdict == Verdict::kMissing;
        misordered += m.verdict == Verdict::kMisordered;
        corrupt += m.verdict == Verdict::kCorrupt;
      }
    }
  }
};

constexpr double kNoSample = 1e300;

/// Worlds timed after cycle 0. Fewer worlds get more runs each, so each
/// world's best run more likely met a quiet host.
constexpr std::size_t kTimedWorlds = 4;

/// Construction time one set-up sample spends: a sample lasts milliseconds
/// even where one world takes tens of microseconds.
constexpr double kSetupSampleS = 0.01;

/// One set-up sample: builds world @p in back to back until kSetupSampleS
/// of construction time is spent; the mean per build.
double setup_sample(const Inputs& in) {
  double total = 0;
  std::size_t built = 0;
  for (; total < kSetupSampleS; ++built) total += setup_s(in);
  return total / static_cast<double>(built);
}

/// Host-timed runs of the seed's worlds: whole cycles over every world until
/// @p budget seconds are spent, at least two. Cycle 0 runs every world,
/// warms the pools and is the virtual reference; the later cycles run the
/// first kTimedWorlds worlds and give the host figures. With
/// @p sample_setup, each later cycle also takes one set-up sample of one
/// timed world, in turn, so the samples spread over the whole budget.
struct Timed {
  /// Cycle 0's worlds. Only world 0 keeps its spans, the ones written out;
  /// the others' span durations are already folded into span_vus.
  std::vector<WorldOutcome> first;
  /// Per world: fastest timed run's host us per delivered message and
  /// fastest set-up sample. Noise on a shared host only ever adds time.
  std::vector<double> best_us_per_msg, best_setup_s;
  /// One entry per timed run, or per set-up sample.
  std::vector<double> us_per_msg, cpu_per_wall, ns_per_event, setup_s;
  bool repeat_identical = true;
};

Timed timed_loop(const std::vector<Inputs>& inputs, bool traced, int workers,
                 bool sample_setup, double budget, Tally& tally) {
  Timed t;
  t.best_us_per_msg.assign(inputs.size(), kNoSample);
  t.best_setup_s.assign(inputs.size(), kNoSample);
  const auto start = Clock::now();
  for (int cycle = 0; cycle < 2 || elapsed_s(start) < budget; ++cycle) {
    const std::size_t worlds =
        cycle == 0 ? inputs.size() : std::min(inputs.size(), kTimedWorlds);
    for (std::size_t k = 0; k < worlds; ++k) {
      WorldOutcome o = run_world(inputs[k], traced, workers);
      tally.add(o);
      if (cycle == 0) {
        if (k > 0) o.spans = {};
        t.first.push_back(std::move(o));
        continue;
      }
      if (!o.same_virtual(t.first[k])) t.repeat_identical = false;
      const auto delivered = static_cast<double>(o.delivered());
      if (delivered > 0) {
        const double us = o.run_s * 1e6 / delivered;
        t.us_per_msg.push_back(us);
        t.best_us_per_msg[k] = std::min(t.best_us_per_msg[k], us);
      }
      if (o.run_s > 0) t.cpu_per_wall.push_back(o.cpu_s / o.run_s);
      if (o.events > 0) {
        t.ns_per_event.push_back(o.run_s * 1e9 / static_cast<double>(o.events));
      }
    }
    if (cycle > 0 && sample_setup) {
      const std::size_t k = static_cast<std::size_t>(cycle - 1) % worlds;
      t.setup_s.push_back(setup_sample(inputs[k]));
      t.best_setup_s[k] = std::min(t.best_setup_s[k], t.setup_s.back());
    }
  }
  return t;
}

/// Median over worlds of each world's best run; worlds that never delivered
/// a message have no sample.
double median_of_best(const std::vector<double>& best) {
  std::vector<double> v;
  for (double b : best) {
    if (b < kNoSample) v.push_back(b);
  }
  return median(v);
}

struct VirtualMetrics {
  double p50_us = 0, p99_us = 0, makespan_us = 0;
  std::size_t samples = 0;
};

VirtualMetrics virtual_metrics(const std::vector<WorldOutcome>& worlds) {
  std::vector<double> lat, span;
  for (const WorldOutcome& w : worlds) {
    for (const auto& ch : w.msgs) {
      for (const auto& m : ch) {
        if (m.verdict != Verdict::kMissing) {
          lat.push_back(static_cast<double>(m.done - m.post) / 1e3);
        }
      }
    }
    span.push_back(static_cast<double>(w.makespan()) / 1e3);
  }
  return {percentile(lat, 50), percentile(lat, 99), median(span), lat.size()};
}

/// Writes the first world's spans (the others only feed the metrics).
void write_spans(const Options& opt, const WorldOutcome& world) {
  namespace fs = std::filesystem;
  fs::create_directories(opt.spans_dir);
  const fs::path path = fs::path(opt.spans_dir) /
                        (std::string(workload_name(opt.workload)) + "-seed" +
                         std::to_string(opt.seed) + ".spans.jsonl");
  std::ofstream f(path);
  for (std::size_t n = 0; n < world.spans.size(); ++n) {
    const auto& list = world.spans[n];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Span& s = list[i];
      f << "{\"node\":" << n << ",\"id\":" << i << ",\"name\":\""
        << span_name(s.name) << "\",\"parent\":" << s.parent
        << ",\"channel\":" << s.channel << ",\"seq\":" << s.seq
        << ",\"v0\":" << s.v0 << ",\"v1\":" << s.v1 << ",\"h0\":" << s.h0
        << ",\"h1\":" << s.h1 << "}\n";
    }
  }
  if (!f) std::fprintf(stderr, "mtbench: could not write %s\n", path.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (const std::string why = checker_self_test(); !why.empty()) {
    std::fprintf(stderr, "mtbench: checker self-test failed: %s\n", why.c_str());
    return 1;
  }

  std::vector<Inputs> inputs;
  for (int k = 0; k < worlds_per_seed(opt.workload); ++k) {
    inputs.push_back(make_inputs(opt.workload, opt.seed * 1000003ull +
                                                   static_cast<std::uint64_t>(k)));
  }

  Tally tally;
  std::vector<std::string> mismatches;
  const double plain_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Timed plain =
      timed_loop(inputs, false, kHybridWorkers, true, plain_budget, tally);
  if (!plain.repeat_identical) mismatches.push_back("two runs of one seed");
  // Before any traced world runs: the untraced program's peak.
  const double rss_mb = peak_rss_mb();

  Timed traced;
  if (opt.trace) {
    traced = timed_loop(inputs, true, kHybridWorkers, false,
                        opt.seconds - plain_budget, tally);
    if (!traced.repeat_identical) mismatches.push_back("two traced runs of one seed");
  } else {
    for (const Inputs& in : inputs) {
      WorldOutcome o = run_world(in, true, kHybridWorkers);
      tally.add(o);
      o.spans = {};
      traced.first.push_back(std::move(o));
    }
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    if (!traced.first[k].same_virtual(plain.first[k])) {
      mismatches.push_back("traced vs untraced run");
      break;
    }
  }

  // hybrid_app's schedule must not depend on how many host threads run it.
  // The workers=1 pass is timed like the main one, so its host figure can be
  // set beside host_us_per_msg (README.md, finding a).
  Timed serial;
  if (opt.workload == Workload::kHybridApp) {
    serial = timed_loop(inputs, false, 1, false, opt.seconds / 4, tally);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      if (!serial.first[k].same_virtual(plain.first[k]) || !serial.repeat_identical) {
        mismatches.push_back("hybrid_app at workers=" + std::to_string(kHybridWorkers) +
                             " vs workers=1");
        break;
      }
    }
  }

  const VirtualMetrics vm = virtual_metrics(plain.first);
  const std::vector<Metric> end_to_end = {
      {"host_us_per_msg", median_of_best(plain.best_us_per_msg), "us"},
      {"setup_s", median_of_best(plain.best_setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"vlat_us_p50", vm.p50_us, "us"},
      {"vlat_us_p99", vm.p99_us, "us"},
      {"vmakespan_us", vm.makespan_us, "us"},
  };
  const double failed_frac =
      tally.attempted > 0
          ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
          : 0.0;

  std::vector<Metric> per_layer;
  if (opt.trace) {
    per_layer = layer_metrics(traced.first);
    per_layer.push_back({"simcore.host_ns_per_event", median(plain.ns_per_event), "ns"});
    per_layer.push_back({"simcore.cpu_per_wall", median(plain.cpu_per_wall), "ratio"});
    const double base = median_of_best(plain.best_us_per_msg);
    per_layer.push_back(
        {"obs.trace_overhead",
         base > 0 ? median_of_best(traced.best_us_per_msg) / base : 0, "ratio"});
    for (const ProbeResult& p : run_probes()) {
      per_layer.push_back({p.name, p.median_ns, "ns"});
      per_layer.push_back({p.name + ".spread", p.spread, "ratio"});
    }
    if (!opt.spans_dir.empty()) write_spans(opt, traced.first.front());
  }

  const bool correct = tally.failed == 0 && mismatches.empty();
  std::printf("workload %s seed %llu: %zu worlds per seed, %zu timed untraced "
              "runs, %zu pooled latency samples\n",
              workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), inputs.size(),
              plain.us_per_msg.size(), vm.samples);
  for (const Metric& m : end_to_end) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %14.4f %s  (%zu of %zu: %zu missing, %zu misordered, "
              "%zu corrupt, %zu failed worlds)\n",
              "failed_frac", failed_frac, "ratio", tally.failed,
              tally.attempted, tally.missing, tally.misordered, tally.corrupt,
              tally.bad_worlds);
  {
    const auto [q1, q3] = quartiles(plain.us_per_msg);
    std::printf("  %-34s %14.4f us  (q1 %.4f, q3 %.4f, over every timed run)\n",
                "host_us_per_msg median", median(plain.us_per_msg), q1, q3);
  }
  {
    const auto [q1, q3] = quartiles(plain.setup_s);
    std::printf("  %-34s %14.4g s   (q1 %.4g, q3 %.4g, over %zu samples)\n",
                "setup_s median", median(plain.setup_s), q1, q3,
                plain.setup_s.size());
  }
  if (!serial.first.empty()) {
    std::printf("  %-34s %14.4f us  (%zu timed runs)\n",
                "host_us_per_msg at workers=1",
                median_of_best(serial.best_us_per_msg), serial.us_per_msg.size());
  }
  for (const Metric& m : per_layer) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "mtbench: determinism check failed: %s\n", m.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : opt.trace ? per_layer : end_to_end) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return mismatches.empty() ? 0 : 1;
}
