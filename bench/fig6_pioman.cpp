// Fig. 6 -- "Impact of PIOMan on latency".
//
// Same pingpong as Fig. 3, but polling goes through the PIOMan event
// server (request-list management + internal locking on every pass).
// Paper result: ~200 ns of additional one-way latency over the plain
// library, for both locking modes.
#include <cstdio>

#include "bench/common/harness.hpp"

using namespace pm2;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const auto sizes = bench::small_sizes();

  bench::PingpongOptions opt;
  opt.iters = args.iters;
  opt.warmup = args.warmup;

  std::vector<bench::Series> series;
  struct Cfg {
    const char* label;
    nm::LockMode lock;
    bool pioman;
  };
  for (const Cfg& c : {Cfg{"coarse-grain", nm::LockMode::kCoarse, false},
                       Cfg{"fine-grain", nm::LockMode::kFine, false},
                       Cfg{"PIOMan (coarse)", nm::LockMode::kCoarse, true},
                       Cfg{"PIOMan (fine)", nm::LockMode::kFine, true}}) {
    nm::ClusterConfig cfg;
    bench::apply_parallel(args, cfg);
    cfg.nm.lock = c.lock;
    cfg.nm.wait = nm::WaitMode::kBusy;
    if (c.pioman) {
      cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
      // The paper's latency test is single-threaded: polling happens in the
      // waiting thread's PIOMan passes on the app core.
      cfg.nm.poll_core = 0;
    }
    series.push_back(bench::run_pingpong(c.label, cfg, sizes, opt));
  }

  bench::print_table("Fig. 6: impact of PIOMan on latency (one-way, us)",
                     sizes, series);

  std::printf("\nPIOMan overhead (ns):\n%-10s  %12s  %12s\n", "size(B)",
              "coarse", "fine");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-10zu  %12.0f  %12.0f\n", sizes[i],
                (series[2].latency_us[i] - series[0].latency_us[i]) * 1e3,
                (series[3].latency_us[i] - series[1].latency_us[i]) * 1e3);
  }
  std::printf("\npaper: PIOMan adds ~200 ns (internal list management + "
              "locking)\n");

  bench::write_csv(args.csv, sizes, series);

  // --metrics-out: instrumented run on the PIOMan (coarse) configuration.
  nm::ClusterConfig mcfg;
  bench::apply_parallel(args, mcfg);
  mcfg.nm.lock = nm::LockMode::kCoarse;
  mcfg.nm.wait = nm::WaitMode::kBusy;
  mcfg.nm.progress = nm::ProgressMode::kPiomanHooks;
  mcfg.nm.poll_core = 0;
  // --simsan=on: concurrency analysis on the same configuration.
  bench::run_simsan_report(args, "representative", mcfg);
  bench::write_metrics_report(args, mcfg);
  return 0;
}
