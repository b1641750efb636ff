// Figure-property regression tests: the paper's qualitative claims, pinned
// as assertions so refactors cannot silently lose them. Each test is a
// miniature of the corresponding bench (fewer iterations, 1-2 sizes).
#include <gtest/gtest.h>

#include "bench/common/harness.hpp"

namespace pm2 {
namespace {

double oneway_us(nm::ClusterConfig cfg, std::size_t size,
                 bench::PingpongOptions opt = {}) {
  opt.iters = 30;
  opt.warmup = 5;
  return bench::run_pingpong("x", cfg, {size}, opt).latency_us[0];
}

TEST(FigureProperties, Fig3LockingOverheadFlatAndOrdered) {
  auto latency = [&](nm::LockMode lock, std::size_t size) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = lock;
    return oneway_us(cfg, size);
  };
  for (std::size_t size : {std::size_t{1}, std::size_t{2048}}) {
    const double none = latency(nm::LockMode::kNone, size);
    const double coarse = latency(nm::LockMode::kCoarse, size);
    const double fine = latency(nm::LockMode::kFine, size);
    // Ordering: none < coarse < fine.
    EXPECT_LT(none, coarse) << size;
    EXPECT_LT(coarse, fine) << size;
    // Magnitudes: tens-to-hundreds of ns, not µs (paper: 140 / 230 ns).
    EXPECT_GT(coarse - none, 0.05) << size;   // > 50 ns
    EXPECT_LT(coarse - none, 0.5) << size;    // < 500 ns
    EXPECT_LT(fine - none, 0.6) << size;
  }
  // Flatness: the 2 KB overhead within 150 ns of the 1 B overhead.
  const double d1 = latency(nm::LockMode::kCoarse, 1) -
                    latency(nm::LockMode::kNone, 1);
  const double d2k = latency(nm::LockMode::kCoarse, 2048) -
                     latency(nm::LockMode::kNone, 2048);
  EXPECT_NEAR(d1, d2k, 0.15);
}

TEST(FigureProperties, Fig5ConcurrentThreadsCostMoreUnderCoarse) {
  auto ratio = [&](nm::LockMode lock) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = lock;
    bench::PingpongOptions one;
    one.iters = 30;
    one.warmup = 5;
    const double single =
        bench::run_pingpong("1", cfg, {64}, one).latency_us[0];
    bench::PingpongOptions two = one;
    two.streams = 2;
    const double dual = bench::run_pingpong("2", cfg, {64}, two).latency_us[0];
    return dual / single;
  };
  const double coarse = ratio(nm::LockMode::kCoarse);
  const double fine = ratio(nm::LockMode::kFine);
  EXPECT_GT(coarse, fine);   // coarse serializes more
  EXPECT_GT(coarse, 1.15);   // well above single-thread
  EXPECT_GT(fine, 1.0);
  EXPECT_LT(fine, 1.25);     // fine stays close to single-thread
}

TEST(FigureProperties, Fig6PiomanAddsBoundedOverhead) {
  nm::ClusterConfig plain;
  plain.nm.lock = nm::LockMode::kFine;
  nm::ClusterConfig pioman = plain;
  pioman.nm.progress = nm::ProgressMode::kPiomanHooks;
  pioman.nm.poll_core = 0;
  const double delta = oneway_us(pioman, 8) - oneway_us(plain, 8);
  EXPECT_GT(delta, 0.05);  // it is not free (paper: ~200 ns)
  EXPECT_LT(delta, 0.5);   // and not dominant
}

TEST(FigureProperties, Fig7PassiveCostsAboutTwoSwitches) {
  auto with_wait = [&](nm::WaitMode wait) {
    nm::ClusterConfig cfg;
    cfg.nm.wait = wait;
    cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
    cfg.nm.poll_core = 0;
    return oneway_us(cfg, 8);
  };
  const double busy = with_wait(nm::WaitMode::kBusy);
  const double passive = with_wait(nm::WaitMode::kPassive);
  const double fixed = with_wait(nm::WaitMode::kFixedSpin);
  EXPECT_GT(passive - busy, 0.4);  // paper: ~750 ns
  EXPECT_LT(passive - busy, 1.2);
  // Fixed spin at 8 B (latency < 5 us budget) recovers busy-wait latency.
  EXPECT_NEAR(fixed, busy, 0.15);
}

TEST(FigureProperties, Fig8AffinityOrdering) {
  auto with_poll_cpu = [&](int cpu) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = nm::LockMode::kFine;
    bench::PingpongOptions opt;
    if (cpu == 0) {
      cfg.nm.progress = nm::ProgressMode::kAppDriven;
    } else {
      cfg.nm.progress = nm::ProgressMode::kPollThread;
      cfg.nm.poll_core = cpu;
      opt.poll_threads = true;
    }
    opt.app_core = 0;
    return oneway_us(cfg, 8, opt);
  };
  const double same = with_poll_cpu(0);
  const double shared = with_poll_cpu(1);
  const double cross = with_poll_cpu(2);
  EXPECT_LT(same, shared);
  EXPECT_LT(shared, cross);
  // Paper magnitudes: +400 ns and +1.2 us.
  EXPECT_NEAR(shared - same, 0.4, 0.2);
  EXPECT_NEAR(cross - same, 1.2, 0.4);
}

TEST(FigureProperties, Fig9TaskletsCostMoreThanIdleCores) {
  auto with_progress = [&](nm::ProgressMode mode) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = nm::LockMode::kFine;
    cfg.nm.progress = mode;
    cfg.nm.poll_core = 1;
    bench::PingpongOptions opt;
    opt.compute_phase = sim::microseconds(10);
    return oneway_us(cfg, 8192, opt);
  };
  const double reference = with_progress(nm::ProgressMode::kAppDriven);
  const double idle = with_progress(nm::ProgressMode::kIdleCoreOffload);
  const double tasklet = with_progress(nm::ProgressMode::kTaskletOffload);
  EXPECT_LT(reference, idle);
  EXPECT_LT(idle, tasklet);
  // Paper magnitudes: ~0.4 us and ~2 us.
  EXPECT_LT(idle - reference, 1.2);
  EXPECT_GT(tasklet - reference, 1.5);
  EXPECT_LT(tasklet - reference, 3.0);
}

}  // namespace
}  // namespace pm2
