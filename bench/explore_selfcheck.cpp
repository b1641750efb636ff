// Guard: the schedule explorer finds what it must and certifies what it
// can.
//
// Four acceptance claims for simexplore (ISSUE 10):
//  1. A seeded order-dependent race -- invisible on the default schedule
//     because the first thread publishes a flag the second one checks --
//     is rediscovered within a 200-schedule budget, on a *divergent*
//     schedule (first_schedule > 0), and its replay token reproduces it.
//  2. The fig3 analysis workload under LockMode::kNone keeps reporting
//     exactly the 6 known baseline races on the default schedule, and all
//     6 canonical sites survive into the aggregated report at preemption
//     bound 2 -- exploration widens the evidence, it must not lose it.
//  3. Fine locking with 4 endpoints and 4 streams stays clean across the
//     whole explored space at bound 2: a verdict over many interleavings,
//     not one lucky schedule.
//  4. The 16-thread coarse-locked blocking-send workload (EXPERIMENTS.md
//     "Progress collapse", backoff pinned off) livelocks on the default
//     schedule; the liveness monitor certifies the starvation limit cycle
//     as liveness.livelock, and the recorded token replays it
//     byte-identically (same trace hash, same virtual detection time).
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/common/harness.hpp"
#include "nmad/cluster.hpp"
#include "simcore/engine.hpp"
#include "simexplore/explore.hpp"
#include "simmachine/machine.hpp"
#include "simsan/context.hpp"
#include "simsan/simsan.hpp"
#include "simthread/scheduler.hpp"

using namespace pm2;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

/// Seeded order-dependent defect: w0 accesses the shared counter and then
/// publishes `first_done`; w1 only touches the counter when the flag is
/// still clear. Spawn order puts w0 first in the runqueue, so the default
/// schedule runs w0 to completion and analyzes clean -- only a divergent
/// dispatch pick exposes the unsynchronized access pair.
void injected_race(const xpl::RunHandle&) {
  sim::Engine engine;
  mach::Machine machine(engine, "node0", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  mth::Scheduler sched(machine);
  auto& an = san::Analyzer::global();
  an.set_clock(&engine);
  an.set_enabled(true);

  san::Shared counter("selfcheck.counter");
  bool first_done = false;
  mth::ThreadAttrs a0;
  a0.name = "w0";
  a0.bind_core = 0;
  sched.spawn([&] {
    sched.charge_current(100);
    SIMSAN_ACCESS(counter);
    first_done = true;
  }, a0);
  mth::ThreadAttrs a1;
  a1.name = "w1";
  a1.bind_core = 0;
  sched.spawn([&] {
    sched.charge_current(100);
    if (!first_done) SIMSAN_ACCESS(counter);
  }, a1);

  engine.run();
  an.set_enabled(false);
  an.set_clock(nullptr);
}

/// EXPERIMENTS.md "Progress collapse": blocking sends, no pre-posted
/// receives, quad-core nodes, 16 threads per side (4x oversubscribed),
/// coarse locking, spin backoff pinned off to restore the pre-backoff
/// contended schedule. The cap only bounds a non-livelocked run; the
/// liveness monitor stops a certified limit cycle much earlier.
void coarse_livelock(const xpl::RunHandle& h) {
  constexpr int kThreads = 16;
  constexpr int kMsgs = 16;
  nm::ClusterConfig cfg;
  cfg.nm.lock = nm::LockMode::kCoarse;
  cfg.costs.spin_backoff_onset = 1 << 30;
  nm::Cluster world(cfg);
  h.watch(world.engine());
  for (int t = 0; t < kThreads; ++t) {
    const nm::Tag tag = static_cast<nm::Tag>(t);
    world.spawn(0, [&world, tag, t] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      std::vector<std::uint8_t> m(64, static_cast<std::uint8_t>(t));
      for (int i = 0; i < kMsgs; ++i) c.send(g, tag, m.data(), m.size());
    });
    world.spawn(1, [&world, tag] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::uint8_t> b(64);
      for (int i = 0; i < kMsgs; ++i) c.recv(g, tag, b.data(), b.size());
    });
  }
  world.engine().run_until(sim::milliseconds(20));
}

const xpl::AggFinding* find_rule(const xpl::ExploreReport& rep,
                                 const std::string& rule) {
  for (const xpl::AggFinding& f : rep.findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

void check_injected_race() {
  std::printf("== injected order-dependent race ==\n");
  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 2;
  cfg.budget = 200;
  cfg.label = "selfcheck-injected";
  const xpl::ExploreReport rep = xpl::explore(cfg, injected_race);
  rep.print(stdout);

  expect(rep.count("race") >= 1, "injected race not found within the budget");
  const xpl::AggFinding* race = find_rule(rep, "write-write-race");
  expect(race != nullptr, "no write-write-race site in the aggregate");
  if (race == nullptr) return;
  expect(race->first_schedule > 0,
         "injected race must be invisible on the default schedule");
  expect(race->first_divergence >= 0,
         "divergent schedule must carry its first forced step");
  expect(race->message.find("selfcheck.counter") != std::string::npos,
         "race message names the wrong object");

  xpl::ReplayToken tok;
  expect(xpl::ReplayToken::decode(race->replay_token, &tok),
         "replay token does not decode");
  const xpl::ReplayOutcome out = xpl::replay(tok, injected_race);
  expect(out.findings >= 1, "token replay did not reproduce the race");
}

void check_fig3_space() {
  std::printf("\n== fig3 no-locking: baseline vs explored space ==\n");
  nm::ClusterConfig cfg;
  cfg.nm.lock = nm::LockMode::kNone;
  cfg.nm.wait = nm::WaitMode::kBusy;
  cfg.nm.progress = nm::ProgressMode::kAppDriven;
  const xpl::Scenario scenario = bench::make_pingpong_scenario(cfg);

  xpl::ExploreConfig base;
  base.max_preemptions = 0;
  base.budget = 1;
  base.label = "fig3-none-base";
  const xpl::ExploreReport baseline = xpl::explore(base, scenario);
  baseline.print(stdout);
  expect(baseline.count("race") == 6,
         "default schedule must report the 6 known baseline races");

  xpl::ExploreConfig wide;
  wide.max_preemptions = 2;
  wide.budget = 24;
  wide.label = "fig3-none";
  const xpl::ExploreReport explored = xpl::explore(wide, scenario);
  explored.print(stdout);
  expect(explored.count("race") >= 6,
         "explored space lost baseline race sites");
  std::set<std::string> keys;
  for (const xpl::AggFinding& f : explored.findings) keys.insert(f.key);
  for (const xpl::AggFinding& f : baseline.findings) {
    expect(keys.count(f.key) == 1,
           "a baseline race site is missing from the explored aggregate");
  }

  std::printf("\n== fig3 fine locking, 4 endpoints, 4 streams ==\n");
  nm::ClusterConfig fine;
  fine.nm.lock = nm::LockMode::kFine;
  fine.nm.wait = nm::WaitMode::kBusy;
  fine.nm.progress = nm::ProgressMode::kAppDriven;
  fine.endpoints = 4;
  xpl::ExploreConfig fcfg;
  fcfg.max_preemptions = 2;
  fcfg.budget = 24;
  fcfg.label = "fig3-fine-ep4";
  const xpl::ExploreReport clean =
      xpl::explore(fcfg, bench::make_pingpong_scenario(fine, /*streams=*/4));
  clean.print(stdout);
  expect(clean.findings.empty(),
         "fine locking with per-endpoint streams must stay clean across "
         "the explored space");
  expect(!clean.livelock, "fine locking must not livelock");
}

void check_livelock() {
  std::printf("\n== 16-thread coarse-locked livelock ==\n");
  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 0;
  cfg.budget = 1;
  cfg.label = "coarse-16t";
  const xpl::ExploreReport rep = xpl::explore(cfg, coarse_livelock);
  rep.print(stdout);

  expect(rep.livelock, "16-thread coarse run must livelock");
  const xpl::AggFinding* live = find_rule(rep, "liveness.livelock");
  expect(live != nullptr, "no liveness.livelock finding");
  if (live == nullptr) return;

  xpl::ReplayToken tok;
  expect(xpl::ReplayToken::decode(live->replay_token, &tok),
         "livelock replay token does not decode");
  const xpl::ReplayOutcome a = xpl::replay(tok, coarse_livelock);
  const xpl::ReplayOutcome b = xpl::replay(tok, coarse_livelock);
  expect(a.livelock && b.livelock, "livelock replay did not reproduce");
  expect(a.schedule_hash == b.schedule_hash,
         "livelock replays diverged (trace hash)");
  expect(a.livelock_time == b.livelock_time,
         "livelock replays diverged (virtual detection time)");
  if (a.livelock) {
    std::printf("livelock certified at t=%lldns, replayed byte-identically "
                "(hash %#018llx)\n",
                static_cast<long long>(a.livelock_time),
                static_cast<unsigned long long>(a.schedule_hash));
  }
}

}  // namespace

int main() {
  check_injected_race();
  check_fig3_space();
  check_livelock();
  if (g_failures > 0) {
    std::fprintf(stderr, "\nFAIL: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("\nPASS\n");
  return 0;
}
