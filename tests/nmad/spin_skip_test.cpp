// Busy waits whose spinners' steps are applied whole periods at a time
// (Scheduler::spin's period skip) keep every schedule: each case pins what
// its threads log, the world's end time and executed events, and what the
// waiting node's passes record and pay, at the values a build that ran
// every step produced. The cases sit where a skip could slip: long
// stretches on two nodes at once, an arrival on a flag read at a
// stretch's end, a timeslice that ends mid-stretch with a thread queued, a
// fixed-spin deadline, eight spinners in distinct phases over 64
// endpoints, spinners in phase, arrivals at every offset of a period of
// two spinners out of phase, a flag line that moves, a cancelled event,
// the loop's own limits, instruments on, and a teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/temp_file.hpp"
#include "nmad/busy_wait_probe.hpp"
#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "simsan/simsan.hpp"

namespace pm2::nm {
namespace {

/// On each node, a waiter on core 0 receives one 64 B message that a
/// sender on the other node's core 1 sends after charging @p gap (node 1's
/// 37 ns later), so both waiters spin at once for about @p gap. Node n's
/// threads note into @p probe[n].
void co_spin(Cluster& world, Probe* const (&probe)[2], sim::Time gap) {
  for (int node = 0; node < 2; ++node) {
    Probe& p = *probe[node];
    world.spawn(node, [&world, &p, node] {
      std::vector<std::uint8_t> b(64);
      world.core(node).recv(world.gate(node, 1 - node), 1, b.data(),
                            b.size());
      p.note(node);
    }, "waiter", 0);
    world.spawn(node, [&world, &p, node, gap] {
      std::vector<std::uint8_t> m(64);
      charge(gap + 37 * node);
      world.core(node).send(world.gate(node, 1 - node), 1, m.data(),
                            m.size());
      p.note(2 + node);
    }, "sender", 1);
  }
}

/// co_spin() for 50 us, run whole at one partition.
const char* const kCoSpin = "51094:2 51131:3 53268:0 53268:1 | end 53268 events 2149 passes 523 empty 523 busy 53268 lines 1";

TEST(SpinSkip, TwoNodesCoSpinFor50us) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  co_spin(world, {&probe, &probe}, sim::microseconds(50));
  world.run();
  EXPECT_EQ(probe.str(), kCoSpin);
}

/// Node 0 posts a 64 B receive, charges @p x and waits; node 1 charges
/// 50 us and sends. The waiter reads its flag at 565 + x + 100 k ns and the
/// packet arrives at 52668 ns: on the first read at or after the arrival
/// at x = 3, after a stretch of about 500 cycles.
std::string arrival(sim::Time x, sim::Time cancelled_at = 0) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  world.spawn(0, [&] {
    Core& c = world.core(0);
    std::vector<std::uint8_t> b(64);
    Request* r = c.irecv(world.gate(0, 1), 1, b.data(), b.size());
    charge(x);
    if (cancelled_at > 0) {
      sim::EventHandle h = world.engine().schedule_at(
          cancelled_at, [&probe] { probe.note(9); });
      world.engine().cancel(h);
    }
    c.wait(r);
    c.release(r);
    probe.note(0);
  }, "waiter", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> m(64);
    charge(sim::microseconds(50));
    world.core(1).send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(1);
  }, "sender", 0);
  world.run();
  return probe.str();
}

TEST(SpinSkip, ArrivalOnTheFirstFlagReadAfterALongStretch) {
  EXPECT_EQ(arrival(2), "51094:1 53195:0 | end 53195 events 23 passes 523 empty 523 busy 53195 lines 0");
  EXPECT_EQ(arrival(3), "51094:1 53096:0 | end 53096 events 23 passes 522 empty 522 busy 53096 lines 0");
  EXPECT_EQ(arrival(4), "51094:1 53097:0 | end 53097 events 23 passes 522 empty 522 busy 53097 lines 0");
}

/// Node 0's waiter spins on core 0 for a message node 1 sends after
/// 150 us. A second thread on core 0 is queued behind it from the start
/// (@p queued_at 0) or made runnable by the end of a sleep of @p queued_at,
/// then works 5 us; under kFine the waiter hands the core over only when
/// its 100 us timeslice ends.
std::string thread_on_the_spinning_core(sim::Time queued_at) {
  ClusterConfig cfg;
  cfg.nm.lock = LockMode::kFine;
  Cluster world(cfg);
  Probe probe(world);
  world.spawn(0, [&] {
    std::vector<std::uint8_t> b(64);
    world.core(0).recv(world.gate(0, 1), 1, b.data(), b.size());
    probe.note(0);
  }, "waiter", 0);
  world.spawn(0, [&] {
    if (queued_at > 0) world.sched(0).sleep_for(queued_at);
    probe.note(2);
    world.sched(0).work(sim::microseconds(5));
    probe.note(3);
  }, "queued", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> m(64);
    charge(sim::microseconds(150));
    world.core(1).send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(1);
  }, "sender", 0);
  world.run();
  return probe.str();
}

TEST(SpinSkip, TimesliceEndsMidStretchWithAThreadQueued) {
  EXPECT_EQ(thread_on_the_spinning_core(0), "100820:2 105820:3 151094:1 153143:0 | end 153143 events 29 passes 1465 empty 1465 busy 153143 lines 0");
}

TEST(SpinSkip, ThreadMadeRunnableMidStretch) {
  EXPECT_EQ(thread_on_the_spinning_core(sim::microseconds(30)),
            "151094:1 153143:0 153518:2 158518:3 | end 158518 events 34 passes 1515 empty 1515 busy 158518 lines 0");
}

/// A fixed-spin wait with a spin budget of @p budget for a message node 1
/// sends after 80 us: the deadline falls about 50 us into the stretch.
std::string fixed_spin(sim::Time budget) {
  ClusterConfig cfg;
  cfg.nm.wait = WaitMode::kFixedSpin;
  cfg.nm.fixed_spin_budget = budget;
  Cluster world(cfg);
  Probe probe(world);
  world.spawn(0, [&] {
    std::vector<std::uint8_t> b(64);
    world.core(0).recv(world.gate(0, 1), 1, b.data(), b.size());
    probe.note(0);
  }, "waiter", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> m(64);
    charge(sim::microseconds(80));
    world.core(1).send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(1);
  }, "sender", 0);
  world.run();
  return probe.str();
}

TEST(SpinSkip, FixedSpinDeadline50usIntoAStretch) {
  EXPECT_EQ(fixed_spin(49999), "81094:1 | end 82668 events 10 passes 500 empty 500 busy 50945 lines 0");
  EXPECT_EQ(fixed_spin(50000), "81094:1 | end 82668 events 10 passes 500 empty 500 busy 50945 lines 0");
  EXPECT_EQ(fixed_spin(50001), "81094:1 | end 82668 events 10 passes 501 empty 501 busy 51045 lines 0");
}

/// 64 endpoints over one rx queue on two dual quad-core nodes: node 0's
/// eight waiters, one per core, start spinning 13 ns apart on tags 7 i + 1
/// (endpoint 7 i + 1), so their steps interleave in eight phases and each
/// empty pass moves the round-robin cursor. After 40 us node 1 posts all
/// eight 64 KiB messages, last tag first. Each is a rendezvous: the pass
/// that matches an RTS defers its grant on the endpoint, and the next pass
/// visits the endpoints with grants from the cursor on, so the cursor
/// decides the order in which the grants, and then the data, go out.
TEST(SpinSkip, EightSpinnersInDistinctPhasesAt64Endpoints) {
  ClusterConfig cfg;
  cfg.topology = mach::CacheTopology::dual_quad_core();
  cfg.endpoints = 64;
  Cluster world(cfg);
  Probe probe(world);
  for (int i = 0; i < 8; ++i) {
    world.spawn(0, [&world, &probe, i] {
      std::vector<std::uint8_t> b(64 * 1024);
      charge(13 * i + 1);
      world.core(0).recv(world.gate(0, 1), static_cast<Tag>(7 * i + 1),
                         b.data(), b.size());
      probe.note(i);
    }, "waiter", i);
  }
  world.spawn(1, [&] {
    Core& c = world.core(1);
    std::vector<std::uint8_t> m(64 * 1024);
    charge(sim::microseconds(40));
    std::vector<Request*> sent;
    for (int i = 7; i >= 0; --i) {
      sent.push_back(c.isend(world.gate(1, 0), static_cast<Tag>(7 * i + 1),
                             m.data(), m.size()));
    }
    for (Request* r : sent) {
      c.wait(r);
      c.release(r);
    }
    probe.note(8);
  }, "sender", 0);
  world.run();
  EXPECT_EQ(probe.str(), "102732:7 157194:4 210010:1 263762:2 318160:0 370969:6 425253:5 476153:8 478843:3 | end 478843 events 54939 passes 22427 empty 22362 busy 318160 lines 157");
}

/// Three nodes in one partition, alike: each one's waiter on core 0
/// receives from the previous node, whose sender on core 1 sends after
/// 30 us. The waiters start spinning at the same instant, so their steps
/// tie all through the stretch and run in the order they were scheduled;
/// so do the three arrivals, and the log's order of their completions,
/// at one instant, is that order.
TEST(SpinSkip, SpinnersInPhaseRunTiesInOrder) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster world(cfg);
  Probe probe(world);
  for (int node = 0; node < 3; ++node) {
    world.spawn(node, [&world, &probe, node] {
      std::vector<std::uint8_t> b(64);
      world.core(node).recv(world.gate(node, (node + 2) % 3), 1, b.data(),
                            b.size());
      probe.note(node);
    }, "waiter", 0);
    world.spawn(node, [&world, &probe, node] {
      std::vector<std::uint8_t> m(64);
      charge(sim::microseconds(30));
      world.core(node).send(world.gate(node, (node + 1) % 3), 1, m.data(),
                            m.size());
      probe.note(3 + node);
    }, "sender", 1);
  }
  world.run();
  EXPECT_EQ(probe.str(), "31094:3 31094:4 31094:5 33268:0 33268:1 33268:2 | end 33268 events 2028 passes 323 empty 323 busy 33268 lines 1");
}

/// Node 0's waiter on core 0 waits for a receive that a thread on core 1
/// posted; that thread then tests the request every 3 us for 30 us, so the
/// flag's line sits on core 1 whenever the waiter's next touch comes, and
/// the waiter's next cycle pays the transfer. Node 1 sends after 50 us.
TEST(SpinSkip, FlagLineOnAnotherCore) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  Request* posted = nullptr;
  std::vector<std::uint8_t> b(64);
  world.spawn(0, [&] {
    charge(2000);
    world.core(0).wait(posted);
    world.core(0).release(posted);
    probe.note(0);
  }, "waiter", 0);
  world.spawn(0, [&] {
    Core& c = world.core(0);
    posted = c.irecv(world.gate(0, 1), 1, b.data(), b.size());
    for (int i = 0; i < 10; ++i) {
      charge(sim::microseconds(3));
      (void)c.test(posted);
    }
    probe.note(2);
  }, "tester", 1);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> m(64);
    charge(sim::microseconds(50));
    world.core(1).send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(1);
  }, "sender", 0);
  world.run();
  EXPECT_EQ(probe.str(), "31945:2 51094:1 53198:0 | end 53198 events 95 passes 496 empty 496 busy 53198 lines 21");
}

/// An event the waiter of arrival(3) schedules 20 us into its stretch and
/// cancels before it waits stays queued behind the sender's resume: it
/// runs nothing, but until it leaves the queue it is due, so the step
/// whose charge reaches it cannot advance in place.
TEST(SpinSkip, CancelledEventInsideAStretch) {
  EXPECT_EQ(arrival(3, sim::microseconds(20)), "51094:1 53096:0 | end 53096 events 24 passes 522 empty 522 busy 53096 lines 0");
}

TEST(SpinSkip, StepsStopAtARunUntilDeadline) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  co_spin(world, {&probe, &probe}, sim::microseconds(50));
  world.engine().run_until(sim::microseconds(30));  // both mid-stretch
  EXPECT_EQ(probe.str(), "| end 30000 events 1194 passes 295 empty 295 busy 30045 lines 0");
  world.run();
  EXPECT_EQ(probe.str(), kCoSpin);
}

TEST(SpinSkip, StepsStopAtAStop) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  co_spin(world, {&probe, &probe}, sim::microseconds(50));
  world.engine().schedule_at(sim::microseconds(30),
                             [&world] { world.engine().stop(); });
  world.run();
  EXPECT_EQ(probe.str(), "| end 30000 events 1195 passes 295 empty 295 busy 30045 lines 0");
  world.run();
  EXPECT_EQ(probe.str(), "51094:2 51131:3 53268:0 53268:1 | end 53268 events 2150 passes 523 empty 523 busy 53268 lines 1");  // kCoSpin and the stop event
}

TEST(SpinSkip, StepsStayWithinAWindowHorizon) {
  for (const int workers : {1, 2}) {
    ClusterConfig cfg;
    cfg.partitions = 2;
    cfg.workers = workers;
    Cluster world(cfg);
    Probe node0(world);
    Probe node1(world);
    co_spin(world, {&node0, &node1}, sim::microseconds(50));
    world.run();
    EXPECT_EQ(node0.str(), "51094:2 53268:0 | end 53268 events 116 passes 523 empty 523 busy 53268 lines 1") << "workers " << workers;
    EXPECT_EQ(node1.str(), "51131:3 53268:1 | end 53268 events 116 passes 523 empty 523 busy 53268 lines 1") << "workers " << workers;
  }
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::string bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
      bytes.append(chunk, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());
  return bytes;
}

/// Two spinners out of phase: node 0's waiter spins from the start, node
/// 1's from 37 ns later, and node n's sender sends 64 B to the other node
/// after 20 us + @p d + 29 n. Over one 100 ns period of @p d, each arrival
/// (and each sender's resume) lands at every offset from the spinners'
/// steps, so some land between the end of a period and the later
/// spinner's pending step: a skip must stop short of those too.
std::string out_of_phase(sim::Time d) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  for (int node = 0; node < 2; ++node) {
    world.spawn(node, [&world, &probe, node] {
      std::vector<std::uint8_t> b(64);
      charge(1 + 37 * node);
      world.core(node).recv(world.gate(node, 1 - node), 1, b.data(),
                            b.size());
      probe.note(node);
    }, "waiter", 0);
    world.spawn(node, [&world, &probe, node, d] {
      std::vector<std::uint8_t> m(64);
      charge(sim::microseconds(20) + d + 29 * node);
      world.core(node).send(world.gate(node, 1 - node), 1, m.data(),
                            m.size());
      probe.note(2 + node);
    }, "sender", 1);
  }
  world.run();
  return probe.str();
}

TEST(SpinSkip, ArrivalsOverOnePeriodOfTwoOutOfPhaseSpinners) {
  std::string logs;
  for (sim::Time d = 0; d < 100; ++d) logs += out_of_phase(d) + "\n";
  EXPECT_EQ(out_of_phase(0), "21094:2 21123:3 23206:1 23269:0 | end 23269 events 509 passes 223 empty 223 busy 23269 lines 1");
  EXPECT_EQ(fnv1a64(logs), 8289515514394901825u);
}

/// The co-spin at four endpoints (so simsan checks every skipped endpoint
/// of every pass), plain or with the registry, the trace log (timeline and
/// flow trace) and simsan on: the probe, then the registry's empty-poll
/// counts, the binary trace's size and hash, and simsan's report's.
std::string instrumented(bool on) {
  ClusterConfig cfg;
  cfg.endpoints = 4;
  Cluster world(cfg);
  auto& reg = obs::MetricsRegistry::global();
  if (on) {
    world.enable_timeline();
    world.enable_flow_trace();
    world.enable_simsan();
    reg.reset_values();
    reg.set_enabled(true);
  }
  Probe probe(world);
  co_spin(world, {&probe, &probe}, sim::microseconds(50));
  world.run();
  reg.set_enabled(false);
  std::string out = probe.str();
  if (!on) return out;
  for (const char* node : {"node0", "node1"}) {
    out += std::string(" ") + node + " polls_empty " +
           std::to_string(
               reg.counter_value("nic", node, "fabric-0.polls_empty")
                   .value_or(0));
  }
  const std::string path = test::temp_file("pm2sim_spin_skip.trace.bin");
  world.write_trace_binary(path);
  const std::string trace = read_file(path);
  const std::string report = san::Analyzer::global().report_json();
  out += " trace " + std::to_string(trace.size()) + " " +
         std::to_string(fnv1a64(trace)) + " simsan " +
         std::to_string(san::Analyzer::global().total_findings()) + " " +
         std::to_string(fnv1a64(report));
  return out;
}

TEST(SpinSkip, InstrumentsSeeTheSameRun) {
  const std::string plain = instrumented(false);
  EXPECT_EQ(plain, "51094:2 51131:3 53193:0 53193:1 | end 53193 events 2147 passes 523 empty 523 busy 53193 lines 0");
  EXPECT_EQ(instrumented(true), plain + " node0 polls_empty 523 node1 polls_empty 523 trace 1832 5983095824358488028 simsan 0 1993360877210227019");
}

/// Sets a flag when the frame that holds it is left.
struct Released {
  bool* released;
  ~Released() { *released = true; }
};

// A world destroyed while its waiter is 50 us into a stretch: node 1's
// body throws out of the run with the waiter's next step pending. The
// waiter must leave its wait without another step running.
TEST(SpinSkip, TeardownMidStretchUnwindsTheWaiter) {
  bool released = false;
  bool carried_on = false;
  std::string caught;
  std::string at_throw;
  try {
    Cluster world(ClusterConfig{});
    Probe probe(world);
    world.spawn(0, [&] {
      const Released frame{&released};
      std::vector<std::uint8_t> b(64);
      world.core(0).recv(world.gate(0, 1), 1, b.data(), b.size());
      carried_on = true;
    }, "waiter", 0);
    world.spawn(1, [&] {
      charge(sim::microseconds(50));
      probe.note(1);
      throw std::runtime_error("body failed");
    }, "thrower", 0);
    try {
      world.run();
    } catch (...) {
      at_throw = probe.str();
      throw;
    }
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "body failed");
  EXPECT_EQ(at_throw, "50375:1 | end 50375 events 6 passes 499 empty 499 busy 50445 lines 0");
  EXPECT_TRUE(released);
  EXPECT_FALSE(carried_on);
}

// The skip happens: on the overhead gates' pingpong (192 round trips of
// 64 B, busy wait), fewer than half of the empty iterations run step by
// step; the rest are applied as whole periods.
TEST(SpinSkip, MostEmptyCyclesOfThePingpongAreSkipped) {
  Cluster world(ClusterConfig{});
  constexpr int kRoundTrips = 192;
  world.spawn(0, [&world] {
    Core& c = world.core(0);
    std::vector<std::uint8_t> m(64), b(64);
    for (int i = 0; i < kRoundTrips; ++i) {
      c.send(world.gate(0, 1), 1, m.data(), m.size());
      c.recv(world.gate(0, 1), 2, b.data(), b.size());
    }
  });
  world.spawn(1, [&world] {
    Core& c = world.core(1);
    std::vector<std::uint8_t> b(64);
    for (int i = 0; i < kRoundTrips; ++i) {
      c.recv(world.gate(1, 0), 1, b.data(), b.size());
      c.send(world.gate(1, 0), 2, b.data(), b.size());
    }
  });
  world.run();
  std::uint64_t empty = 0;
  std::uint64_t skipped = 0;
  for (int n = 0; n < 2; ++n) {
    empty += world.nic(n, 0).polls_empty();
    skipped += world.sched(n).skipped_spin_cycles();
  }
  ASSERT_GT(empty, 0u);
  EXPECT_LT(2 * (empty - skipped), empty)
      << (empty - skipped) << " of " << empty << " run step by step";
}

}  // namespace
}  // namespace pm2::nm
