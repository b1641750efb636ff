// Fig. 7 -- "Impact of semaphores on latency" (active vs passive waiting).
//
// Waiting functions implemented with blocking semaphores cost ~750 ns extra
// one-way latency (one context-switch out + one back in per wait) compared
// to active polling. The fixed-spin algorithm [Karlin et al.] -- spin for
// ~5 us, then block -- recovers active-wait latency for fast events; the
// paper describes it in Sec. 3.3, and the extra columns here show it.
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
    nm::WaitMode wait;
  };
  for (const Cfg& c :
       {Cfg{"active (coarse)", nm::LockMode::kCoarse, nm::WaitMode::kBusy},
        Cfg{"active (fine)", nm::LockMode::kFine, nm::WaitMode::kBusy},
        Cfg{"passive (coarse)", nm::LockMode::kCoarse, nm::WaitMode::kPassive},
        Cfg{"passive (fine)", nm::LockMode::kFine, nm::WaitMode::kPassive},
        Cfg{"fixed-spin (coarse)", nm::LockMode::kCoarse, nm::WaitMode::kFixedSpin},
        Cfg{"fixed-spin (fine)", nm::LockMode::kFine, nm::WaitMode::kFixedSpin}}) {
    nm::ClusterConfig cfg;
    bench::apply_parallel(args, cfg);
    cfg.nm.lock = c.lock;
    cfg.nm.wait = c.wait;
    // All variants poll through PIOMan: passive waiting depends on it (the
    // scheduler hooks poll while the thread is blocked), and using it
    // everywhere isolates the waiting-policy effect.
    cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
    cfg.nm.poll_core = 0;
    series.push_back(bench::run_pingpong(c.label, cfg, sizes, opt));
  }

  bench::print_table(
      "Fig. 7: active vs passive vs fixed-spin waiting (one-way, us)", sizes,
      series);

  std::printf("\npassive-wait overhead vs active (ns):\n%-10s  %12s  %12s"
              "  %14s  %12s\n",
              "size(B)", "coarse", "fine", "fixspin-coarse", "fixspin-fine");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-10zu  %12.0f  %12.0f  %14.0f  %12.0f\n", sizes[i],
                (series[2].latency_us[i] - series[0].latency_us[i]) * 1e3,
                (series[3].latency_us[i] - series[1].latency_us[i]) * 1e3,
                (series[4].latency_us[i] - series[0].latency_us[i]) * 1e3,
                (series[5].latency_us[i] - series[1].latency_us[i]) * 1e3);
  }
  std::printf("\npaper: semaphores add ~750 ns (context switches); fixed "
              "spin avoids the switch when the event arrives within the "
              "budget\n");

  bench::write_csv(args.csv, sizes, series);

  // --metrics-out: instrumented run on the passive (coarse) configuration
  // (context switches per round are the interesting number here).
  nm::ClusterConfig mcfg;
  bench::apply_parallel(args, mcfg);
  mcfg.nm.lock = nm::LockMode::kCoarse;
  mcfg.nm.wait = nm::WaitMode::kPassive;
  mcfg.nm.progress = nm::ProgressMode::kPiomanHooks;
  mcfg.nm.poll_core = 0;
  // --simsan=on: concurrency analysis on the same configuration.
  bench::run_simsan_report(args, "representative", mcfg);
  bench::write_metrics_report(args, mcfg);
  return 0;
}
