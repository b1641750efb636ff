// Fig. 9 -- "Impact of tasklets on deferred message submission".
//
// Non-blocking pingpong with a 10 us compute phase inserted between
// nm_isend and nm_wait; message submission is either performed inline
// (reference), deferred to a tasklet on another core, or picked up by an
// idle core's scheduler hook (no tasklets). Paper result: tasklets add
// ~2 us (the "complex locking mechanism involved when a tasklet is
// invoked"); the hook-based idle-core offload costs only ~400 ns.
#include <cstdio>

#include "bench/common/harness.hpp"

using namespace pm2;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const auto sizes = bench::overlap_sizes();

  bench::PingpongOptions opt;
  opt.iters = args.iters;
  opt.warmup = args.warmup;
  opt.compute_phase = sim::microseconds(10);
  opt.app_core = 0;

  std::vector<bench::Series> series;
  struct Cfg {
    const char* label;
    nm::ProgressMode progress;
  };
  for (const Cfg& c :
       {Cfg{"reference", nm::ProgressMode::kAppDriven},
        Cfg{"offload w/o tasklets", nm::ProgressMode::kIdleCoreOffload},
        Cfg{"offload w/ tasklets", nm::ProgressMode::kTaskletOffload}}) {
    nm::ClusterConfig cfg;
    bench::apply_parallel(args, cfg);
    cfg.nm.lock = nm::LockMode::kFine;
    cfg.nm.wait = nm::WaitMode::kBusy;
    cfg.nm.progress = c.progress;
    // Offload target: core 1, which shares its L2 with the application
    // core (Sec. 4.1 showed why the neighbour is the right choice). Under
    // idle-core offload it is the one core PIOMan's hooks poll from.
    cfg.nm.poll_core = 1;
    series.push_back(bench::run_pingpong(c.label, cfg, sizes, opt));
  }

  bench::print_table(
      "Fig. 9: deferred message submission with a 10 us compute phase "
      "(one-way, us)",
      sizes, series);

  std::printf("\noffload overhead vs reference (ns):\n%-10s  %14s  %14s\n",
              "size(B)", "idle-core", "tasklets");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-10zu  %14.0f  %14.0f\n", sizes[i],
                (series[1].latency_us[i] - series[0].latency_us[i]) * 1e3,
                (series[2].latency_us[i] - series[0].latency_us[i]) * 1e3);
  }
  std::printf("\npaper: tasklets +2 us, idle-core offload +400 ns\n");

  bench::write_csv(args.csv, sizes, series);

  // --metrics-out: instrumented run on the tasklet-offload configuration.
  nm::ClusterConfig mcfg;
  bench::apply_parallel(args, mcfg);
  mcfg.nm.lock = nm::LockMode::kFine;
  mcfg.nm.wait = nm::WaitMode::kBusy;
  mcfg.nm.progress = nm::ProgressMode::kTaskletOffload;
  mcfg.nm.poll_core = 1;
  // --simsan=on: concurrency analysis on the same configuration.
  bench::run_simsan_report(args, "representative", mcfg);
  bench::write_metrics_report(args, mcfg);
  return 0;
}
