#include "bench/common/harness.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>

#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "simcore/stats.hpp"
#include "simsan/simsan.hpp"

namespace pm2::bench {

std::vector<std::size_t> small_sizes() {
  std::vector<std::size_t> s;
  for (std::size_t n = 1; n <= 2048; n *= 2) s.push_back(n);
  return s;
}

std::vector<std::size_t> overlap_sizes() {
  std::vector<std::size_t> s;
  for (std::size_t n = 2048; n <= 32768; n *= 2) s.push_back(n);
  return s;
}

namespace {

std::vector<std::uint8_t> make_pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return v;
}

/// One pingpong stream at one size; returns the median one-way latency (us).
double run_stream_size(const nm::ClusterConfig& cfg, std::size_t size,
                       const PingpongOptions& opt, int stream,
                       int total_streams) {
  nm::Cluster world(cfg);
  const nm::Tag tag_ping = 1000 + static_cast<nm::Tag>(stream);
  const nm::Tag tag_pong = 2000 + static_cast<nm::Tag>(stream);
  sim::SampleSet samples;

  if (opt.poll_threads) {
    world.core(0).start_poll_thread();
    world.core(1).start_poll_thread();
  }

  const int iters = opt.iters;
  const int warmup = opt.warmup;
  const int app_core = opt.app_core;
  (void)total_streams;

  world.spawn(0, [&, size] {
    nm::Core& c = world.core(0);
    nm::Gate* g = world.gate(0, 1);
    auto msg = make_pattern(size, 3);
    std::vector<std::uint8_t> back(size);
    auto& sched = world.sched(0);
    for (int i = 0; i < warmup + iters; ++i) {
      const sim::Time t0 = world.engine().now();
      nm::Request* rr = c.irecv(g, tag_pong, back.data(), back.size());
      nm::Request* sr = c.isend(g, tag_ping, msg.data(), msg.size());
      if (opt.compute_phase > 0) sched.work(opt.compute_phase);
      c.wait(rr);
      c.wait(sr);
      c.release(rr);
      c.release(sr);
      const sim::Time t1 = world.engine().now();
      if (i >= warmup) samples.add(sim::to_us(t1 - t0) / 2.0);
    }
    if (opt.poll_threads) world.core(0).stop_poll_thread();
  }, "ping", app_core);

  world.spawn(1, [&, size] {
    nm::Core& c = world.core(1);
    nm::Gate* g = world.gate(1, 0);
    std::vector<std::uint8_t> buf(size);
    auto& sched = world.sched(1);
    for (int i = 0; i < warmup + iters; ++i) {
      nm::Request* rr = c.irecv(g, tag_ping, buf.data(), buf.size());
      c.wait(rr);
      c.release(rr);
      nm::Request* sr = c.isend(g, tag_pong, buf.data(), buf.size());
      // Mirror structure: the compute phase sits between isend and wait.
      if (opt.compute_phase > 0) sched.work(opt.compute_phase);
      c.wait(sr);
      c.release(sr);
    }
    if (opt.poll_threads) world.core(1).stop_poll_thread();
  }, "pong", app_core);

  world.run();
  return samples.median();
}

/// Multi-stream run (Fig. 5): all streams share one cluster; stream k's
/// threads bind to core app_core + k on each node.
std::vector<double> run_streams_size(const nm::ClusterConfig& cfg,
                                     std::size_t size,
                                     const PingpongOptions& opt) {
  nm::Cluster world(cfg);
  std::vector<sim::SampleSet> samples(static_cast<std::size_t>(opt.streams));

  for (int s = 0; s < opt.streams; ++s) {
    const nm::Tag tag_ping = 1000 + static_cast<nm::Tag>(s);
    const nm::Tag tag_pong = 2000 + static_cast<nm::Tag>(s);
    const int core = opt.app_core + s;

    // Blocking send/recv, as in a classic threaded pingpong: the receive is
    // posted inside the timed visit, so under coarse locking a thread's
    // whole round trip keeps the other thread out of the library -- the
    // serialization Fig. 5 demonstrates.
    world.spawn(0, [&world, &samples, size, s, tag_ping, tag_pong, &opt] {
      nm::Core& c = world.core(0);
      nm::Gate* g = world.gate(0, 1);
      auto msg = make_pattern(size, static_cast<std::uint8_t>(s));
      std::vector<std::uint8_t> back(size);
      for (int i = 0; i < opt.warmup + opt.iters; ++i) {
        const sim::Time t0 = world.engine().now();
        c.send(g, tag_ping, msg.data(), msg.size());
        c.recv(g, tag_pong, back.data(), back.size());
        const sim::Time t1 = world.engine().now();
        if (i >= opt.warmup) {
          samples[static_cast<std::size_t>(s)].add(sim::to_us(t1 - t0) / 2.0);
        }
      }
    }, "ping" + std::to_string(s), core);

    world.spawn(1, [&world, size, tag_ping, tag_pong, &opt] {
      nm::Core& c = world.core(1);
      nm::Gate* g = world.gate(1, 0);
      std::vector<std::uint8_t> buf(size);
      for (int i = 0; i < opt.warmup + opt.iters; ++i) {
        c.recv(g, tag_ping, buf.data(), buf.size());
        c.send(g, tag_pong, buf.data(), buf.size());
      }
    }, "pong" + std::to_string(s), core);
  }

  world.run();
  std::vector<double> medians;
  for (auto& s : samples) medians.push_back(s.median());
  return medians;
}

}  // namespace

Series run_pingpong(const std::string& label, const nm::ClusterConfig& cfg,
                    const std::vector<std::size_t>& sizes,
                    const PingpongOptions& opt) {
  Series out;
  out.label = label;
  out.per_stream_us.resize(static_cast<std::size_t>(opt.streams));
  for (std::size_t size : sizes) {
    if (opt.streams == 1) {
      const double us = run_stream_size(cfg, size, opt, 0, 1);
      out.latency_us.push_back(us);
      out.per_stream_us[0].push_back(us);
    } else {
      const auto per = run_streams_size(cfg, size, opt);
      double sum = 0;
      for (int s = 0; s < opt.streams; ++s) {
        out.per_stream_us[static_cast<std::size_t>(s)].push_back(
            per[static_cast<std::size_t>(s)]);
        sum += per[static_cast<std::size_t>(s)];
      }
      out.latency_us.push_back(sum / opt.streams);
    }
  }
  return out;
}

void print_table(const std::string& title, const std::vector<std::size_t>& sizes,
                 const std::vector<Series>& series) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-10s", "size(B)");
  for (const auto& s : series) std::printf("  %22s", s.label.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-10zu", sizes[i]);
    for (const auto& s : series) std::printf("  %19.3f us", s.latency_us[i]);
    std::printf("\n");
  }
}

void write_csv(const std::string& path, const std::vector<std::size_t>& sizes,
               const std::vector<Series>& series) {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open csv path: " + path);
  f << "size_bytes";
  for (const auto& s : series) f << "," << s.label;
  f << "\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    f << sizes[i];
    for (const auto& s : series) f << "," << s.latency_us[i];
    f << "\n";
  }
  std::printf("csv written: %s\n", path.c_str());
}

BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--iters=", 8) == 0) {
      args.iters = std::atoi(a + 8);
    } else if (std::strncmp(a, "--warmup=", 9) == 0) {
      args.warmup = std::atoi(a + 9);
    } else if (std::strncmp(a, "--csv=", 6) == 0) {
      args.csv = a + 6;
    } else if (std::strncmp(a, "--metrics-out=", 14) == 0) {
      args.metrics_out = a + 14;
    } else if (std::strncmp(a, "--simsan=", 9) == 0) {
      const char* v = a + 9;
      args.simsan = std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0;
    } else if (std::strncmp(a, "--partitions=", 13) == 0) {
      args.partitions = std::atoi(a + 13);
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      args.workers = std::atoi(a + 10);
    } else if (std::strncmp(a, "--endpoints=", 12) == 0) {
      args.endpoints = std::atoi(a + 12);
    } else if (std::strncmp(a, "--rx-queues=", 12) == 0) {
      args.rx_queues = std::atoi(a + 12);
    } else if (std::strncmp(a, "--explore=", 10) == 0) {
      args.explore = std::atoi(a + 10);
    } else if (std::strncmp(a, "--explore-budget=", 17) == 0) {
      args.explore_budget = std::atoi(a + 17);
    } else if (std::strncmp(a, "--explore-out=", 14) == 0) {
      args.explore_out = a + 14;
    } else if (std::strncmp(a, "--replay=", 9) == 0) {
      args.replay = a + 9;
    } else if (std::strncmp(a, "--spin-backoff=", 15) == 0) {
      args.spin_backoff_off = std::strcmp(a + 15, "off") == 0 ||
                              std::strcmp(a + 15, "0") == 0;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", a);
    }
  }
  return args;
}

void apply_parallel(const BenchArgs& args, nm::ClusterConfig& cfg) {
  cfg.partitions = args.partitions;
  cfg.workers = args.workers;
  cfg.endpoints = args.endpoints;
  cfg.rx_queues = args.rx_queues;
  // Onset beyond any retry count a bounded run can reach = backoff never
  // engages; the cap is irrelevant then.
  if (args.spin_backoff_off) cfg.costs.spin_backoff_onset = 1 << 30;
}

namespace {

/// The shared analysis workload: @p streams blocking pingpong streams, all
/// sharing core 0 on each node, under the simsan analyzer. A thread that
/// is paying for virtual time keeps its core, so same-core threads only
/// interleave at scheduling boundaries -- which keeps the *host* data
/// structures intact even under LockMode::kNone, while the accesses of
/// the streams stay unordered by happens-before (a context switch is not
/// synchronization) and the analyzer still proves the race. When
/// @p handle is non-null (schedule exploration), the liveness monitor is
/// armed over the world's engine before any thread runs.
void analysis_pingpong(const nm::ClusterConfig& cfg, int streams, int iters,
                       const xpl::RunHandle* handle) {
  constexpr std::size_t kSize = 64;
  constexpr int kAppCore = 0;
  nm::Cluster world(cfg);
  world.enable_simsan();
  if (handle != nullptr) handle->watch(world.engine());
  const bool poll_threads = cfg.nm.progress == nm::ProgressMode::kPollThread;
  if (poll_threads) {
    world.core(0).start_poll_thread();
    world.core(1).start_poll_thread();
  }
  // Host-side bookkeeping (single host thread, no sim state): the last
  // stream to finish on each node stops that node's poll thread.
  int remaining[2] = {streams, streams};

  for (int s = 0; s < streams; ++s) {
    const nm::Tag tag_ping = 1000 + static_cast<nm::Tag>(s);
    const nm::Tag tag_pong = 2000 + static_cast<nm::Tag>(s);

    world.spawn(0, [&world, &remaining, s, tag_ping, tag_pong, iters,
                    poll_threads] {
      nm::Core& c = world.core(0);
      nm::Gate* g = world.gate(0, 1);
      auto msg = make_pattern(kSize, static_cast<std::uint8_t>(s));
      std::vector<std::uint8_t> back(kSize);
      for (int i = 0; i < iters; ++i) {
        c.send(g, tag_ping, msg.data(), msg.size());
        c.recv(g, tag_pong, back.data(), back.size());
      }
      if (poll_threads && --remaining[0] == 0) {
        world.core(0).stop_poll_thread();
      }
    }, "ping" + std::to_string(s), kAppCore);

    world.spawn(1, [&world, &remaining, s, tag_ping, tag_pong, iters,
                    poll_threads] {
      nm::Core& c = world.core(1);
      nm::Gate* g = world.gate(1, 0);
      std::vector<std::uint8_t> buf(kSize);
      for (int i = 0; i < iters; ++i) {
        c.recv(g, tag_ping, buf.data(), buf.size());
        c.send(g, tag_pong, buf.data(), buf.size());
      }
      if (poll_threads && --remaining[1] == 0) {
        world.core(1).stop_poll_thread();
      }
    }, "pong" + std::to_string(s), kAppCore);
  }

  world.run();
}  // ~Cluster disables the analyzer; findings stay readable

}  // namespace

std::size_t run_simsan_report(const BenchArgs& args, const std::string& label,
                              const nm::ClusterConfig& cfg) {
  if (!args.simsan) return 0;
  analysis_pingpong(cfg, /*streams=*/2, /*iters=*/50, /*handle=*/nullptr);
  std::printf("\n== simsan [%s] ==\n", label.c_str());
  // Merged across analyzer shards (one per engine partition), in shard
  // index order -- byte-identical for any worker count.
  san::Analyzer::merged_print_report(stdout);
  return san::Analyzer::merged_total_findings();
}

xpl::Scenario make_pingpong_scenario(const nm::ClusterConfig& cfg,
                                     int streams, int iters) {
  return [cfg, streams, iters](const xpl::RunHandle& h) {
    analysis_pingpong(cfg, streams, iters, &h);
  };
}

std::size_t run_explore_report(const BenchArgs& args, const std::string& label,
                               const nm::ClusterConfig& cfg) {
  if (args.explore < 0 && args.replay.empty()) return 0;
  const xpl::Scenario scenario = make_pingpong_scenario(cfg);
  std::size_t sites = 0;

  if (args.explore >= 0) {
    xpl::ExploreConfig ecfg;
    ecfg.max_preemptions = args.explore;
    ecfg.budget = args.explore_budget;
    ecfg.label = label;
    const xpl::ExploreReport rep = xpl::explore(ecfg, scenario);
    std::printf("\n== explore [%s] ==\n", label.c_str());
    rep.print(stdout);
    if (!args.explore_out.empty()) {
      // One process explores several configurations into one file: truncate
      // on the first open, append after.
      static std::set<std::string>* opened = new std::set<std::string>();
      const bool first = opened->insert(args.explore_out).second;
      std::ofstream f(args.explore_out,
                      first ? std::ios::trunc : std::ios::app);
      if (!f) {
        throw std::runtime_error("cannot open explore-out path: " +
                                 args.explore_out);
      }
      f << rep.to_json();
      std::printf("explore report %s: %s\n",
                  first ? "written" : "appended", args.explore_out.c_str());
    }
    sites = rep.findings.size();
  }

  if (!args.replay.empty()) {
    std::ifstream f(args.replay);
    if (!f) throw std::runtime_error("cannot open replay file: " + args.replay);
    const std::string want = xpl::sanitize_label(label);
    std::string line;
    int replayed = 0;
    while (std::getline(f, line)) {
      xpl::ReplayToken tok;
      if (!xpl::ReplayToken::decode(line, &tok) || tok.label != want) continue;
      const xpl::ReplayOutcome out = xpl::replay(tok, scenario);
      ++replayed;
      std::printf(
          "replay [%s] %s\n  -> findings=%zu steps=%zu hash=%#018llx%s\n",
          label.c_str(), tok.encode().c_str(), out.findings, out.steps,
          static_cast<unsigned long long>(out.schedule_hash),
          out.livelock ? " LIVELOCK" : "");
    }
    if (replayed == 0) {
      std::printf("replay [%s]: no matching tokens in %s\n", label.c_str(),
                  args.replay.c_str());
    }
  }
  return sites;
}

void write_metrics_report(const BenchArgs& args, const nm::ClusterConfig& cfg) {
  if (args.metrics_out.empty()) return;

  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  {
    nm::Cluster world(cfg);
    obs::TraceLog& log = world.enable_timeline();
    obs::FlowTracer& flow = world.enable_flow_trace();
    reg.reset_values();

    constexpr std::size_t kSize = 64;
    constexpr int kIters = 100;
    const bool poll_threads = cfg.nm.progress == nm::ProgressMode::kPollThread;
    if (poll_threads) {
      world.core(0).start_poll_thread();
      world.core(1).start_poll_thread();
    }

    world.spawn(0, [&world, poll_threads] {
      nm::Core& c = world.core(0);
      nm::Gate* g = world.gate(0, 1);
      auto msg = make_pattern(kSize, 3);
      std::vector<std::uint8_t> back(kSize);
      for (int i = 0; i < kIters; ++i) {
        nm::Request* rr = c.irecv(g, 2000, back.data(), back.size());
        nm::Request* sr = c.isend(g, 1000, msg.data(), msg.size());
        c.wait(rr);
        c.wait(sr);
        c.release(rr);
        c.release(sr);
      }
      if (poll_threads) world.core(0).stop_poll_thread();
    }, "ping", 0);

    world.spawn(1, [&world, poll_threads] {
      nm::Core& c = world.core(1);
      nm::Gate* g = world.gate(1, 0);
      std::vector<std::uint8_t> buf(kSize);
      for (int i = 0; i < kIters; ++i) {
        nm::Request* rr = c.irecv(g, 1000, buf.data(), buf.size());
        c.wait(rr);
        c.release(rr);
        nm::Request* sr = c.isend(g, 2000, buf.data(), buf.size());
        c.wait(sr);
        c.release(sr);
      }
      if (poll_threads) world.core(1).stop_poll_thread();
    }, "pong", 0);

    world.run();
    obs::write_report(args.metrics_out, reg, &flow, &log);
    world.write_timeline(args.metrics_out + ".trace.json");
    world.write_trace_binary(args.metrics_out + ".trace.bin");
    std::printf(
        "metrics report written: %s (timeline: %s.trace.json, binary: "
        "%s.trace.bin; %zu trace records, 0 dropped)\n",
        args.metrics_out.c_str(), args.metrics_out.c_str(),
        args.metrics_out.c_str(), log.record_count());
  }
  reg.set_enabled(false);
}

}  // namespace pm2::bench
