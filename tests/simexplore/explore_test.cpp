// simexplore unit surface: the choice-point controller, replay tokens,
// canonical finding keys and merged-report dedup, the bounded explorer
// itself, and byte-identical replay (flow-trace FNV pin across repeated
// re-executions of a recorded failing schedule).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/temp_file.hpp"
#include "nmad/cluster.hpp"
#include "simcore/engine.hpp"
#include "simexplore/explore.hpp"
#include "simmachine/machine.hpp"
#include "simsan/context.hpp"
#include "simsan/simsan.hpp"
#include "simthread/scheduler.hpp"

namespace pm2 {
namespace {

using xpl::SiteKind;

// --- choice-point controller ------------------------------------------------

TEST(ExploreCtl, InactiveAlwaysPicksDefault) {
  auto& c = xpl::Ctrl::global();
  ASSERT_FALSE(c.active());
  EXPECT_FALSE(xpl::on());
  EXPECT_EQ(xpl::pick(SiteKind::kDispatch, 5, 0x1), 0);
}

TEST(ExploreCtl, ForcedChoicesDriveTheTrace) {
  auto& c = xpl::Ctrl::global();
  c.begin({1, 0, 2});
  EXPECT_TRUE(xpl::on());
  EXPECT_EQ(c.pick(SiteKind::kDispatch, 3, 0xA), 1);
  // Single-option sites take the only branch without consuming a step.
  EXPECT_EQ(c.pick(SiteKind::kSpinHandoff, 1, 0xB), 0);
  EXPECT_EQ(c.pick(SiteKind::kDispatch, 2, 0xC), 0);
  EXPECT_EQ(c.pick(SiteKind::kSpinHandoff, 4, 0xD), 2);
  // Past the forced prefix: default.
  EXPECT_EQ(c.pick(SiteKind::kDispatch, 2, 0xE), 0);
  const std::vector<xpl::Step> steps = c.end();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0].site, SiteKind::kDispatch);
  EXPECT_EQ(steps[0].chosen, 1);
  EXPECT_EQ(steps[1].site, SiteKind::kDispatch);
  EXPECT_EQ(steps[1].options, 2);
  EXPECT_EQ(steps[1].chosen, 0);
  EXPECT_EQ(steps[2].site, SiteKind::kSpinHandoff);
  EXPECT_EQ(steps[2].chosen, 2);
  EXPECT_EQ(steps[2].options, 4);
  EXPECT_EQ(steps[3].chosen, 0);
  EXPECT_FALSE(c.active());
}

TEST(ExploreCtl, StaleForcedChoiceClampsToDefault) {
  auto& c = xpl::Ctrl::global();
  c.begin({7});
  EXPECT_EQ(c.pick(SiteKind::kDispatch, 3, 0x1), 0);
  c.end();
}

TEST(ExploreCtl, LivenessCertifiesRecurringStarvation) {
  auto& c = xpl::Ctrl::global();
  c.begin({});
  sim::Time now = 0;
  bool stopped = false;
  xpl::Ctrl::LivenessConfig lc;
  lc.horizon = 100;
  lc.repeats = 3;
  c.watch([&now] { return now; }, [&stopped] { stopped = true; }, lc);

  now = 50;
  c.pick(SiteKind::kDispatch, 2, 0xAA);  // within the horizon: no suspicion
  EXPECT_FALSE(c.livelock_detected());
  now = 400;  // far past the horizon with zero completions
  c.pick(SiteKind::kDispatch, 2, 0xAA);
  c.pick(SiteKind::kDispatch, 2, 0xAA);
  EXPECT_FALSE(c.livelock_detected());
  c.pick(SiteKind::kDispatch, 2, 0xAA);  // third recurrence certifies
  EXPECT_TRUE(c.livelock_detected());
  EXPECT_TRUE(stopped);
  EXPECT_EQ(c.livelock_time(), 400);
  c.end();
}

TEST(ExploreCtl, CompletionResetsTheLivenessClock) {
  auto& c = xpl::Ctrl::global();
  c.begin({});
  sim::Time now = 0;
  bool stopped = false;
  xpl::Ctrl::LivenessConfig lc;
  lc.horizon = 100;
  lc.repeats = 3;
  c.watch([&now] { return now; }, [&stopped] { stopped = true; }, lc);

  now = 400;
  c.pick(SiteKind::kDispatch, 2, 0xAA);
  c.pick(SiteKind::kDispatch, 2, 0xAA);
  c.note_completion();  // progress: wipes the recurrence set + clock
  c.pick(SiteKind::kDispatch, 2, 0xAA);
  now = 450;  // only 50ns since the last completion
  c.pick(SiteKind::kDispatch, 2, 0xAA);
  EXPECT_FALSE(c.livelock_detected());
  EXPECT_FALSE(stopped);
  EXPECT_EQ(c.completions(), 1u);
  c.end();
}

// --- replay tokens ----------------------------------------------------------

TEST(ReplayToken, SparseRoundTrip) {
  xpl::ReplayToken tok;
  tok.seed = 42;
  tok.label = "fig3 none!";  // sanitized in the encoding
  tok.choices = {0, 1, 0, 3};
  const std::string line = tok.encode();
  EXPECT_EQ(line, "PM2XPL1 seed=42 label=fig3-none- choices=1:1,3:3");
  xpl::ReplayToken back;
  ASSERT_TRUE(xpl::ReplayToken::decode(line, &back));
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.label, "fig3-none-");
  EXPECT_EQ(back.choices, tok.choices);
}

TEST(ReplayToken, DefaultScheduleEncodesAsDash) {
  xpl::ReplayToken tok;
  tok.label = "base";
  const std::string line = tok.encode();
  EXPECT_NE(line.find("choices=-"), std::string::npos);
  xpl::ReplayToken back;
  ASSERT_TRUE(xpl::ReplayToken::decode(line, &back));
  EXPECT_TRUE(back.choices.empty());
}

TEST(ReplayToken, RejectsNonTokens) {
  xpl::ReplayToken out;
  EXPECT_FALSE(xpl::ReplayToken::decode("no token here", &out));
  EXPECT_FALSE(xpl::ReplayToken::decode("PM2XPL1 seed=1 label=x", &out));
  EXPECT_FALSE(xpl::ReplayToken::decode("PM2XPL1 choices=12:x", &out));
}

// --- canonical site keys (and satellite: merged dedup) ----------------------

TEST(CanonicalKey, RaceKeyIgnoresActorsAndTimestamps) {
  const std::string a = san::canonical_site_key(
      san::FindingKind::kRace, "write-write-race",
      "\"nm0.gate1.collect\": ping1 conflicts with ping0 (no common lock, "
      "unordered by happens-before; prior access at t=123ns held [<none>])");
  const std::string b = san::canonical_site_key(
      san::FindingKind::kRace, "write-write-race",
      "\"nm0.gate1.collect\": w7 conflicts with w3 (no common lock, "
      "unordered by happens-before; prior access at t=999ns held [<none>])");
  EXPECT_EQ(a, b);
  const std::string other = san::canonical_site_key(
      san::FindingKind::kRace, "write-write-race",
      "\"nm0.gate1.matching\": ping1 conflicts with ping0 (no common lock, "
      "unordered by happens-before; prior access at t=123ns held [<none>])");
  EXPECT_NE(a, other);
  // A different held lockset is a different site.
  const std::string locked = san::canonical_site_key(
      san::FindingKind::kRace, "write-write-race",
      "\"nm0.gate1.collect\": ping1 conflicts with ping0 (no common lock, "
      "unordered by happens-before; prior access at t=123ns held [nm.big])");
  EXPECT_NE(a, locked);
}

TEST(CanonicalKey, ContextKeyIgnoresTheActingActor) {
  const std::string a = san::canonical_site_key(
      san::FindingKind::kContextViolation, "hook-blocking",
      "hook(node0/c2): blocking primitive Semaphore::acquire in hook context");
  const std::string b = san::canonical_site_key(
      san::FindingKind::kContextViolation, "hook-blocking",
      "worker3: blocking primitive Semaphore::acquire in hook context");
  EXPECT_EQ(a, b);
}

TEST(MergedReport, IdenticalSitesAcrossShardsReportOnceWithCount) {
  san::Analyzer::configure_shards(2);
  for (int i = 0; i < 2; ++i) {
    san::Analyzer::shard(i).reset();
    san::Analyzer::shard(i).set_enabled(true);
  }
  int key0 = 0;
  int key1 = 0;
  auto& s0 = san::Analyzer::shard(0);
  auto& s1 = san::Analyzer::shard(1);
  const std::uint32_t a0 = s0.thread_actor(&key0, "w0");
  const std::uint32_t a1 = s1.thread_actor(&key1, "w7");
  // The same contract violated in two partition shards by different
  // actors: one canonical site.
  s0.report_context(a0, "spin-held-block", "blocking in Semaphore::acquire");
  s1.report_context(a1, "spin-held-block", "blocking in Semaphore::acquire");

  // Raw totals stay raw (counters, acceptance gates) ...
  EXPECT_EQ(san::Analyzer::merged_total_findings(), 2u);
  // ... while the merged listing dedups with an occurrence count.
  const std::string json = san::Analyzer::merged_report_json();
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  std::size_t entries = 0;
  for (std::size_t at = json.find("spin-held-block");
       at != std::string::npos; at = json.find("spin-held-block", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  for (int i = 0; i < 2; ++i) {
    san::Analyzer::shard(i).set_enabled(false);
    san::Analyzer::shard(i).reset();
  }
}

// JSON forbids raw bytes below 0x20 inside strings: a name carrying one
// must render escaped, or the whole report stops parsing.
TEST(ReportJson, ControlBytesInFindingsAreEscaped) {
  const std::string detail = "lock \"a\x01" "b\" held\rnext";
  const std::string escaped = "lock \\\"a\\u0001b\\\" held\\rnext";
  auto expect_clean = [&](const std::string& json, const char* what) {
    EXPECT_NE(json.find(escaped), std::string::npos) << what << ": " << json;
    int raw = 0;
    for (char c : json) {
      // '\n' separates the explorer's findings, between strings.
      if (c != '\n' && static_cast<unsigned char>(c) < 0x20) ++raw;
    }
    EXPECT_EQ(raw, 0) << what;
  };

  auto& an = san::Analyzer::shard(0);
  an.reset();
  an.set_enabled(true);
  int key = 0;
  an.report_context(an.thread_actor(&key, "t\x01"), "ctl-rule", detail);
  expect_clean(an.report_json(), "simsan report_json");
  expect_clean(san::Analyzer::merged_report_json(), "simsan merged");
  an.set_enabled(false);
  an.reset();

  xpl::ExploreReport report;
  report.label = "ctl";
  xpl::AggFinding f;
  f.kind = "context-violation";
  f.rule = "ctl-rule";
  f.message = detail;
  f.replay_token = "PM2XPL1 seed=1 label=ctl choices=-";
  report.findings.push_back(f);
  expect_clean(report.to_json(), "explorer to_json");
}

// --- the explorer -----------------------------------------------------------

/// Synthetic schedule space: two independent 2-option choice points, no
/// engine. Canonical child generation must enumerate it exactly once.
TEST(Explore, ExhaustsTheSyntheticSpaceOnce) {
  int runs = 0;
  const xpl::Scenario scenario = [&runs](const xpl::RunHandle&) {
    ++runs;
    xpl::pick(SiteKind::kDispatch, 2, 0x10);
    xpl::pick(SiteKind::kDispatch, 2, 0x20);
  };

  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 1;
  cfg.budget = 100;
  cfg.label = "synthetic";
  const xpl::ExploreReport one = xpl::explore(cfg, scenario);
  // Default + one divergence at each of the two steps.
  EXPECT_EQ(one.schedules_run, 3);
  EXPECT_TRUE(one.frontier_exhausted);
  EXPECT_EQ(one.schedules_pruned, 0);
  EXPECT_TRUE(one.findings.empty());

  runs = 0;
  cfg.max_preemptions = 2;
  const xpl::ExploreReport two = xpl::explore(cfg, scenario);
  // {}, {1}, {0,1}, {1,1}: children only branch past the parent's forced
  // prefix, so no decision sequence is generated twice.
  EXPECT_EQ(two.schedules_run, 4);
  EXPECT_EQ(runs, 4);
  EXPECT_TRUE(two.frontier_exhausted);
}

TEST(Explore, BudgetCapsTheFrontier) {
  const xpl::Scenario scenario = [](const xpl::RunHandle&) {
    for (int i = 0; i < 8; ++i) xpl::pick(SiteKind::kDispatch, 3, 0x100 + i);
  };
  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 2;
  cfg.budget = 5;
  cfg.label = "capped";
  const xpl::ExploreReport rep = xpl::explore(cfg, scenario);
  EXPECT_EQ(rep.schedules_run, 5);
  EXPECT_FALSE(rep.frontier_exhausted);
}

/// Order-dependent seeded defect (the explore_selfcheck gate runs the
/// full-budget version): w0 publishes a flag w1 checks, so only a
/// divergent first dispatch exposes the unsynchronized access pair.
void injected_race(const xpl::RunHandle&) {
  sim::Engine engine;
  mach::Machine machine(engine, "node0", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  mth::Scheduler sched(machine);
  auto& an = san::Analyzer::global();
  an.set_clock(&engine);
  an.set_enabled(true);
  san::Shared counter("unit.counter");
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

TEST(Explore, FindsTheInjectedRaceOnADivergentSchedule) {
  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 2;
  cfg.budget = 50;
  cfg.label = "unit-injected";
  const xpl::ExploreReport rep = xpl::explore(cfg, injected_race);
  ASSERT_GE(rep.count("race"), 1u);
  const xpl::AggFinding* race = nullptr;
  for (const xpl::AggFinding& f : rep.findings) {
    if (f.kind == "race") race = &f;
  }
  ASSERT_NE(race, nullptr);
  EXPECT_GT(race->first_schedule, 0);
  EXPECT_GE(race->first_divergence, 0);

  xpl::ReplayToken tok;
  ASSERT_TRUE(xpl::ReplayToken::decode(race->replay_token, &tok));
  const xpl::ReplayOutcome out = xpl::replay(tok, injected_race);
  EXPECT_GE(out.findings, 1u);
}

TEST(Explore, ReportsAreDeterministic) {
  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 2;
  cfg.budget = 20;
  cfg.label = "unit-det";
  const xpl::ExploreReport a = xpl::explore(cfg, injected_race);
  const xpl::ExploreReport b = xpl::explore(cfg, injected_race);
  EXPECT_EQ(a.to_json(), b.to_json());
}

// --- byte-identical replay (flow-trace pin) ---------------------------------

std::uint64_t fnv1a64(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

/// The fig3 analysis workload with the binary flow trace enabled: every
/// execution writes the full message-lifecycle record stream, so two
/// byte-identical schedules produce byte-identical trace files.
struct TracedPingpong {
  std::string path;

  void operator()(const xpl::RunHandle& h) const {
    constexpr int kIters = 10;
    constexpr std::size_t kSize = 64;
    nm::ClusterConfig cfg;
    cfg.nm.lock = nm::LockMode::kNone;
    nm::Cluster world(cfg);
    world.enable_simsan();
    world.enable_flow_trace();
    h.watch(world.engine());
    for (int s = 0; s < 2; ++s) {
      const nm::Tag ping = 1000 + static_cast<nm::Tag>(s);
      const nm::Tag pong = 2000 + static_cast<nm::Tag>(s);
      world.spawn(0, [&world, s, ping, pong] {
        nm::Core& c = world.core(0);
        nm::Gate* g = world.gate(0, 1);
        std::vector<std::uint8_t> msg(kSize, static_cast<std::uint8_t>(s));
        std::vector<std::uint8_t> back(kSize);
        for (int i = 0; i < kIters; ++i) {
          c.send(g, ping, msg.data(), msg.size());
          c.recv(g, pong, back.data(), back.size());
        }
      }, "ping" + std::to_string(s), 0);
      world.spawn(1, [&world, ping, pong] {
        nm::Core& c = world.core(1);
        nm::Gate* g = world.gate(1, 0);
        std::vector<std::uint8_t> buf(kSize);
        for (int i = 0; i < kIters; ++i) {
          c.recv(g, ping, buf.data(), buf.size());
          c.send(g, pong, buf.data(), buf.size());
        }
      }, "pong" + std::to_string(s), 0);
    }
    world.run();
    world.write_trace_binary(path);
  }
};

TEST(Explore, ReplayedScheduleIsByteIdentical) {
  const TracedPingpong scenario{
      test::temp_file("pm2sim_xpl_replay.trace.bin")};
  xpl::ExploreConfig cfg;
  cfg.max_preemptions = 1;
  cfg.budget = 4;
  cfg.label = "replay-pin";
  const xpl::ExploreReport rep = xpl::explore(cfg, scenario);
  ASSERT_GE(rep.count("race"), 1u);

  // Re-execute the first failing schedule's token three times: identical
  // simsan verdicts, identical choice-trace hash, FNV-identical flow
  // trace bytes.
  xpl::ReplayToken tok;
  ASSERT_TRUE(xpl::ReplayToken::decode(rep.findings[0].replay_token, &tok));
  std::vector<std::uint64_t> trace_hashes;
  std::vector<std::uint64_t> schedule_hashes;
  std::vector<std::size_t> findings;
  for (int i = 0; i < 3; ++i) {
    const xpl::ReplayOutcome out = xpl::replay(tok, scenario);
    const std::vector<char> bytes = read_file(scenario.path);
    ASSERT_FALSE(bytes.empty());
    trace_hashes.push_back(fnv1a64(bytes));
    schedule_hashes.push_back(out.schedule_hash);
    findings.push_back(out.findings);
  }
  EXPECT_EQ(trace_hashes[0], trace_hashes[1]);
  EXPECT_EQ(trace_hashes[0], trace_hashes[2]);
  EXPECT_EQ(schedule_hashes[0], schedule_hashes[1]);
  EXPECT_EQ(schedule_hashes[0], schedule_hashes[2]);
  EXPECT_EQ(findings[0], findings[1]);
  EXPECT_EQ(findings[0], findings[2]);

  // A divergent forced choice is a *different* byte-identical schedule.
  xpl::ReplayToken div = tok;
  div.choices.assign(1, 1);
  const xpl::ReplayOutcome d1 = xpl::replay(div, scenario);
  const std::uint64_t d1_trace = fnv1a64(read_file(scenario.path));
  const xpl::ReplayOutcome d2 = xpl::replay(div, scenario);
  const std::uint64_t d2_trace = fnv1a64(read_file(scenario.path));
  EXPECT_EQ(d1.schedule_hash, d2.schedule_hash);
  EXPECT_EQ(d1_trace, d2_trace);
  EXPECT_NE(d1.schedule_hash, schedule_hashes[0]);
  std::remove(scenario.path.c_str());
}

}  // namespace
}  // namespace pm2
