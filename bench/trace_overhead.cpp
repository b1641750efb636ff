// Guard: full tracing through the binary trace recorder stays cheap.
//
// Runs the BM_PingpongEndToEnd workload alternately untraced and with the
// complete observability surface on -- Chrome-trace timeline (scheduler
// spans, NIC tx/rx) plus flow-lifecycle stamps, all appended to the
// per-partition trace record vectors -- compares the best-of-N host
// times, and fails when the traced runs are more than 3% slower. The
// structure mirrors metrics_overhead: alternate the order within each rep
// and take minima so host noise hits both variants equally.
#include <ctime>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "nmad/cluster.hpp"

using namespace pm2;

namespace {

constexpr std::size_t kPingpongIters = 192;
constexpr int kPairs = 24;
// The <= 3% claim is about production builds. TSan multiplies the cost of
// every memory access, and the traced variant does strictly more of them
// (48-byte record writes into the rings), so the instrumented ratio sits
// around 5-9% even when the uninstrumented one is under 3%. Keep a loose
// bound there so sanitizer CI still catches gross hot-path regressions
// without failing on instrumentation skew.
#if defined(__SANITIZE_THREAD__)
constexpr double kMaxRatio = 1.15;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kMaxRatio = 1.15;
#else
constexpr double kMaxRatio = 1.03;
#endif
#else
constexpr double kMaxRatio = 1.03;
#endif
// A noisy host can push a single comparison past the limit even with
// alternation; a genuine hot-path regression fails every attempt, so
// retry the whole measurement before declaring failure.
constexpr int kAttempts = 3;

/// One full pingpong world: the BM_PingpongEndToEnd body, optionally with
/// the trace-ring timeline + flow tracing enabled. Only world.run() is
/// timed: this guards the per-record steady-state cost, not the one-time
/// recorder setup/teardown (ring and intern-table allocation), which a
/// whole-lifecycle timer would drown the hot path in.
double timed_run(bool traced) {
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  if (traced) {
    world.enable_timeline();
    world.enable_flow_trace();
  }
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
  // Thread CPU time, not wall clock: the workload is single-threaded, so
  // this excludes the time a busy host spends running *other* processes in
  // the middle of a rep -- the dominant noise source for a ratio this tight.
  timespec t0{};
  timespec t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  world.run();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
}

}  // namespace

int main() {
  // Warm up both variants (stack pools, allocator, instruction cache).
  for (int w = 0; w < 2; ++w) {
    (void)timed_run(false);
    (void)timed_run(true);
  }

  double ratio = 1e30;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    // Paired back-to-back runs cancel slow host drift (frequency scaling,
    // background load ramps) that independent best-of minima cannot; the
    // median of the per-pair ratios shrugs off one-sided spikes.
    std::vector<double> ratios;
    ratios.reserve(kPairs);
    double best_off = 1e30;
    double best_on = 1e30;
    for (int r = 0; r < kPairs; ++r) {
      double off;
      double on;
      // Alternate the order within each pair so residual drift hits both.
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
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                     ratios.end());
    ratio = ratios[kPairs / 2];

    std::printf("trace off: %.3f ms   trace on (ring): %.3f ms   median "
                "pair ratio: %.4f (limit %.2f, attempt %d/%d)\n",
                best_off * 1e3, best_on * 1e3, ratio, kMaxRatio, attempt,
                kAttempts);
    if (ratio <= kMaxRatio) break;
  }
  if (ratio > kMaxRatio) {
    std::fprintf(stderr, "FAIL: ring trace hot-path overhead above %.0f%%\n",
                 (kMaxRatio - 1.0) * 100.0);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
