// Fig. 8 -- "Impact of cache affinity on a quad-core chip" (+ the dual
// quad-core numbers quoted in Sec. 4.1).
//
// The application thread is bound to CPU 0; polling is deferred to a
// dedicated progression thread bound to CPU k. Paper results (quad-core
// X5460): polling on CPU 0 is best; CPU 1 (shared L2) adds ~400 ns; CPU 2/3
// (no shared cache) add ~1.2 us. Dual quad-core: shared cache +400 ns, same
// chip different cache +2.3 us, other chip +3.1 us.
#include <cstdio>

#include "bench/common/harness.hpp"

using namespace pm2;

namespace {

bench::Series run_affinity(const bench::BenchArgs& args, const char* label,
                           int poll_cpu, const mach::CacheTopology& topo,
                           const mach::CostBook& costs,
                           const std::vector<std::size_t>& sizes,
                           const bench::PingpongOptions& base) {
  nm::ClusterConfig cfg;
  cfg.topology = topo;
  cfg.costs = costs;
  bench::apply_parallel(args, cfg);
  cfg.nm.lock = nm::LockMode::kFine;
  cfg.nm.wait = nm::WaitMode::kBusy;
  bench::PingpongOptions opt = base;
  opt.app_core = 0;
  if (poll_cpu == 0) {
    // Polling on the application's own CPU: the waiting thread polls.
    cfg.nm.progress = nm::ProgressMode::kAppDriven;
  } else {
    cfg.nm.progress = nm::ProgressMode::kPollThread;
    cfg.nm.poll_core = poll_cpu;
    opt.poll_threads = true;
  }
  return bench::run_pingpong(label, cfg, sizes, opt);
}

void report(const char* title, const std::vector<bench::Series>& series,
            const std::vector<std::size_t>& sizes) {
  bench::print_table(title, sizes, series);
  std::printf("\noverhead vs polling on cpu 0 (ns), per poll cpu:\n%-10s",
              "size(B)");
  for (std::size_t k = 1; k < series.size(); ++k) {
    std::printf("  %16s", series[k].label.c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-10zu", sizes[i]);
    for (std::size_t k = 1; k < series.size(); ++k) {
      std::printf("  %16.0f",
                  (series[k].latency_us[i] - series[0].latency_us[i]) * 1e3);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const auto sizes = bench::small_sizes();

  bench::PingpongOptions opt;
  opt.iters = args.iters;
  opt.warmup = args.warmup;

  // --- quad-core X5460 node (Fig. 8 proper) -------------------------------
  {
    const auto topo = mach::CacheTopology::quad_core();
    const auto costs = mach::CostBook::xeon_quad();
    std::vector<bench::Series> series;
    series.push_back(run_affinity(args, "cpu 0 (same core)", 0, topo, costs, sizes, opt));
    series.push_back(run_affinity(args, "cpu 1 (shared cache)", 1, topo, costs, sizes, opt));
    series.push_back(run_affinity(args, "cpu 2 (no shared)", 2, topo, costs, sizes, opt));
    series.push_back(run_affinity(args, "cpu 3 (no shared)", 3, topo, costs, sizes, opt));
    report("Fig. 8: polling-core placement, quad-core node (one-way, us)",
           series, sizes);
    std::printf("\npaper (quad-core): cpu1 +400 ns, cpu2/cpu3 +1.2 us\n");
    bench::write_csv(args.csv, sizes, series);
  }

  // --- dual quad-core node (Sec. 4.1 prose) --------------------------------
  {
    const auto topo = mach::CacheTopology::dual_quad_core();
    const auto costs = mach::CostBook::xeon_dual_quad();
    std::vector<bench::Series> series;
    series.push_back(run_affinity(args, "cpu 0 (same core)", 0, topo, costs, sizes, opt));
    series.push_back(run_affinity(args, "cpu 1 (shared cache)", 1, topo, costs, sizes, opt));
    series.push_back(run_affinity(args, "cpu 2 (same chip)", 2, topo, costs, sizes, opt));
    series.push_back(run_affinity(args, "cpu 4 (other chip)", 4, topo, costs, sizes, opt));
    report("Sec. 4.1: polling-core placement, dual quad-core node (one-way, us)",
           series, sizes);
    std::printf("\npaper (dual quad): shared cache +400 ns, same chip "
                "+2.3 us, other chip +3.1 us\n");
  }

  // --metrics-out: instrumented run with a dedicated poll thread on the
  // shared-cache neighbour (the quad-core "cpu 1" series).
  nm::ClusterConfig mcfg;
  bench::apply_parallel(args, mcfg);
  mcfg.nm.lock = nm::LockMode::kFine;
  mcfg.nm.wait = nm::WaitMode::kBusy;
  mcfg.nm.progress = nm::ProgressMode::kPollThread;
  mcfg.nm.poll_core = 1;
  // --simsan=on: concurrency analysis on the same configuration.
  bench::run_simsan_report(args, "representative", mcfg);
  bench::write_metrics_report(args, mcfg);
  return 0;
}
