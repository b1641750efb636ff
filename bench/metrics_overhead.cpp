// Guard: the metrics registry's hot-path cost stays negligible.
//
// Runs the BM_PingpongEndToEnd workload with the registry alternately
// disabled and enabled, in back-to-back pairs, and fails when the median
// of the pairs' enabled/disabled ratios is more than 3% above 1. Each run
// is a whole world (construction, run and teardown) timed on the thread's
// CPU clock, which leaves out the time a busy host spends running other
// processes; alternating the order within pairs and taking the median of
// their ratios cancels drift and one-sided spikes, as trace_overhead does.
#include <ctime>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"

using namespace pm2;

namespace {

constexpr std::size_t kPingpongIters = 192;
constexpr int kPairs = 16;
constexpr double kMaxRatio = 1.03;
// A noisy host can push one measurement past the limit even with paired
// runs; a genuine hot-path regression fails every attempt, so retry the
// whole measurement before declaring failure.
constexpr int kAttempts = 3;

/// One full pingpong world: the BM_PingpongEndToEnd body.
void run_workload() {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    auto& c = world.core(0);
    auto* g = world.gate(0, 1);
    std::vector<std::uint8_t> m(64), b(64);
    for (std::size_t i = 0; i < kPingpongIters; ++i) {
      c.send(g, 1, m.data(), m.size());
      c.recv(g, 2, b.data(), b.size());
    }
  });
  world.spawn(1, [&world] {
    auto& c = world.core(1);
    auto* g = world.gate(1, 0);
    std::vector<std::uint8_t> b(64);
    for (std::size_t i = 0; i < kPingpongIters; ++i) {
      c.recv(g, 1, b.data(), b.size());
      c.send(g, 2, b.data(), b.size());
    }
  });
  world.run();
}

/// Thread CPU seconds of one whole world with the registry @p enabled.
double timed_run(bool enabled) {
  obs::MetricsRegistry::global().set_enabled(enabled);
  timespec t0{};
  timespec t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  run_workload();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
}

}  // namespace

int main() {
  auto& reg = obs::MetricsRegistry::global();

  // Warm up both variants (stack pools, allocator, instruction cache).
  for (int w = 0; w < 2; ++w) {
    reg.set_enabled(false);
    run_workload();
    reg.set_enabled(true);
    run_workload();
  }

  double ratio = 1e30;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    double best_off = 1e30;
    double best_on = 1e30;
    for (int r = 0; r < kPairs; ++r) {
      double off;
      double on;
      // Alternate the order within each pair so drift hits both variants.
      if (r % 2 == 0) {
        off = timed_run(false);
        on = timed_run(true);
      } else {
        on = timed_run(true);
        off = timed_run(false);
      }
      best_off = std::min(best_off, off);
      best_on = std::min(best_on, on);
      ratios.push_back(on / off);
    }
    reg.set_enabled(false);
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                     ratios.end());
    ratio = ratios[kPairs / 2];

    std::printf("metrics off: %.3f ms   metrics on: %.3f ms   median pair "
                "ratio: %.4f (limit %.2f, attempt %d/%d)\n",
                best_off * 1e3, best_on * 1e3, ratio, kMaxRatio, attempt,
                kAttempts);
    if (ratio <= kMaxRatio) break;
  }
  if (ratio > kMaxRatio) {
    std::fprintf(stderr, "FAIL: metrics hot-path overhead above %.0f%%\n",
                 (kMaxRatio - 1.0) * 100.0);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
