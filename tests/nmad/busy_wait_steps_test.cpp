// Busy waits whose empty iterations run as scheduler steps (Core::wait,
// Scheduler::spin) keep every schedule: each case pins what its threads
// log (virtual time and who), the world's end time and executed events,
// and what the waiting node's passes record and pay, at the values a build
// that resumed the waiting fiber for every iteration produced. The cases
// sit where a replay could slip: a completion or an arrival on a flag-read
// instant and 1 ns to either side, a thread made runnable on the spinning
// core, a fixed-spin deadline, an active bit raised mid-stretch, two rails,
// a run_until deadline, a stop(), a window horizon and a teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nmad/busy_wait_probe.hpp"
#include "nmad/cluster.hpp"

namespace pm2::nm {
namespace {

/// Node 0 posts a 64 B receive, charges @p x and waits; node 1 charges
/// 3 us and sends. The waiter reads its flag at 565 + x + 100 k ns and the
/// packet arrives at 5668 ns: on a read instant at x = 3.
std::string arrival(sim::Time x) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  world.spawn(0, [&] {
    Core& c = world.core(0);
    std::vector<std::uint8_t> b(64);
    Request* r = c.irecv(world.gate(0, 1), 1, b.data(), b.size());
    charge(x);
    c.wait(r);
    c.release(r);
    probe.note(0);
  }, "waiter", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> m(64);
    charge(3000);
    world.core(1).send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(1);
  }, "sender", 0);
  world.run();
  return probe.str();
}

TEST(BusyWaitSteps, ArrivalOnAFlagReadInstant) {
  EXPECT_EQ(arrival(2),
            "4094:1 6195:0 | end 6195 events 23 passes 53 empty 53 busy 6195 "
            "lines 0");
  EXPECT_EQ(arrival(3),
            "4094:1 6096:0 | end 6096 events 23 passes 52 empty 52 busy 6096 "
            "lines 0");
  EXPECT_EQ(arrival(4),
            "4094:1 6097:0 | end 6097 events 23 passes 52 empty 52 busy 6097 "
            "lines 0");
}

/// Node 0 sends 4 KiB, charges @p x and waits for the send; node 1
/// receives. The waiter reads its flag at 1435 + x + 100 k ns and the wire
/// completes the send at 4835 ns: on a read instant at x = 100.
std::string send_completion(sim::Time x) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  world.spawn(0, [&] {
    Core& c = world.core(0);
    std::vector<std::uint8_t> m(4096);
    Request* r = c.isend(world.gate(0, 1), 1, m.data(), m.size());
    charge(x);
    c.wait(r);
    c.release(r);
    probe.note(0);
  }, "waiter", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> b(4096);
    world.core(1).recv(world.gate(1, 0), 1, b.data(), b.size());
    probe.note(1);
  }, "receiver", 0);
  world.run();
  return probe.str();
}

TEST(BusyWaitSteps, SendCompletionOnAFlagReadInstant) {
  EXPECT_EQ(send_completion(99),
            "4934:0 6955:1 | end 6955 events 93 passes 34 empty 34 busy 4934 "
            "lines 0");
  EXPECT_EQ(send_completion(100),
            "4835:0 6955:1 | end 6955 events 92 passes 33 empty 33 busy 4835 "
            "lines 0");
  EXPECT_EQ(send_completion(101),
            "4836:0 6955:1 | end 6955 events 90 passes 33 empty 33 busy 4836 "
            "lines 0");
}

/// Two waiters on node 0, on cores 0 and 1, each spin on a receive, the
/// second from @p lead ns later; node 1 sends the second's message, then,
/// @p gap ns later, the first's. A pass of either waiter may complete the
/// other's request, which moves that flag's cache line to its core: the
/// waiter's next flag test pays the transfer. With a 26 ns lead the second
/// waiter's flag is set that way during its poll, so a step touches it.
std::string flag_set_on_another_core(sim::Time lead, sim::Time gap) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  for (int t = 0; t < 2; ++t) {
    world.spawn(0, [&, t] {
      std::vector<std::uint8_t> b(64);
      if (t == 1) charge(lead);
      world.core(0).recv(world.gate(0, 1), 1 + t, b.data(), b.size());
      probe.note(t);
    }, "waiter", t);
  }
  world.spawn(1, [&] {
    Core& c = world.core(1);
    std::vector<std::uint8_t> m(64);
    charge(3000);
    c.send(world.gate(1, 0), 2, m.data(), m.size());
    charge(gap);
    c.send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(2);
  }, "sender", 0);
  world.run();
  return probe.str();
}

TEST(BusyWaitSteps, FlagSetOnAnotherCore) {
  EXPECT_EQ(flag_set_on_another_core(0, 0),
            "4983:2 6168:1 7033:0 | end 7033 events 161 passes 109 empty 109 "
            "busy 7033 lines 3");
  EXPECT_EQ(flag_set_on_another_core(0, 1000),
            "5813:2 6168:1 7933:0 | end 7933 events 155 passes 118 empty 118 "
            "busy 7933 lines 3");
  EXPECT_EQ(flag_set_on_another_core(26, 0),
            "4983:2 6330:1 7046:0 | end 7046 events 260 passes 108 empty 108 "
            "busy 7046 lines 6");
}

/// A thread on node 0's core 0 sleeps 2 us, so the waiter gets the core
/// and spins; the sleeper becomes runnable on the spinning core, then
/// works 1 us. Node 1 sends the awaited message after 150 us, past the
/// waiter's 100 us timeslice.
std::string runnable_on_the_spinning_core(LockMode lock) {
  ClusterConfig cfg;
  cfg.nm.lock = lock;
  Cluster world(cfg);
  Probe probe(world);
  world.spawn(0, [&] {
    world.sched(0).sleep_for(sim::microseconds(2));
    probe.note(2);
    world.sched(0).work(sim::microseconds(1));
    probe.note(3);
  }, "sleeper", 0);
  world.spawn(0, [&] {
    std::vector<std::uint8_t> b(64);
    world.core(0).recv(world.gate(0, 1), 1, b.data(), b.size());
    probe.note(0);
  }, "waiter", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> m(64);
    charge(sim::microseconds(150));
    world.core(1).send(world.gate(1, 0), 1, m.data(), m.size());
    probe.note(1);
  }, "sender", 0);
  world.run();
  return probe.str();
}

TEST(BusyWaitSteps, RunnableThreadUnderFineWaitsForTheTimeslice) {
  EXPECT_EQ(runnable_on_the_spinning_core(LockMode::kFine),
            "101195:2 102195:3 151094:1 153118:0 | end 153118 events 35 "
            "passes 1501 empty 1501 busy 153118 lines 0");
}

TEST(BusyWaitSteps, RunnableThreadUnderCoarseHandsBackAtOnce) {
  EXPECT_EQ(runnable_on_the_spinning_core(LockMode::kCoarse),
            "101125:2 102125:3 151164:1 153078:0 | end 153078 events 32 "
            "passes 1096 empty 1096 busy 153078 lines 0");
}

/// Fixed-spin wait for a 16 KiB send (about 13 us on the wire) with a spin
/// budget of @p budget: the loop tops fall every 100 ns from the loop's
/// start, so the deadline lands on one at 5000 ns.
std::string fixed_spin(sim::Time budget) {
  ClusterConfig cfg;
  cfg.nm.wait = WaitMode::kFixedSpin;
  cfg.nm.fixed_spin_budget = budget;
  Cluster world(cfg);
  Probe probe(world);
  world.spawn(0, [&] {
    std::vector<std::uint8_t> m(16384);
    world.core(0).send(world.gate(0, 1), 1, m.data(), m.size());
    probe.note(0);
  }, "waiter", 0);
  world.spawn(1, [&] {
    std::vector<std::uint8_t> b(16384);
    world.core(1).recv(world.gate(1, 0), 1, b.data(), b.size());
    probe.note(1);
  }, "receiver", 0);
  world.run();
  return probe.str();
}

TEST(BusyWaitSteps, FixedSpinDeadlineInsideAStretch) {
  EXPECT_EQ(fixed_spin(4999),
            "15040:0 | end 16065 events 109 passes 50 empty 50 busy 7190 "
            "lines 0");
  EXPECT_EQ(fixed_spin(5000),
            "15040:0 | end 16065 events 109 passes 50 empty 50 busy 7190 "
            "lines 0");
  EXPECT_EQ(fixed_spin(5001),
            "15040:0 | end 16065 events 111 passes 51 empty 51 busy 7290 "
            "lines 0");
}

/// Four endpoints: node 0's waiter spins on a receive of endpoint 1 while
/// another fiber on node 0 starts a 64 KiB rendezvous send on endpoint 2
/// after 3 us and sleeps 30 us before waiting for it. Its isend raises
/// endpoint 2's active bit mid-stretch, and so does the grant once a pass
/// drains it; only passes that visit the endpoint send the data. Node 1
/// receives the rendezvous, then sends the awaited message.
std::string active_bit_mid_stretch(int rx_queues) {
  ClusterConfig cfg;
  cfg.topology = mach::CacheTopology::dual_quad_core();
  cfg.endpoints = 4;
  cfg.rx_queues = rx_queues;
  Cluster world(cfg);
  Probe probe(world);
  world.spawn(0, [&] {
    std::vector<std::uint8_t> b(64);
    world.core(0).recv(world.gate(0, 1), 1, b.data(), b.size());
    probe.note(0);
  }, "waiter", 0);
  world.spawn(0, [&] {
    Core& c = world.core(0);
    std::vector<std::uint8_t> m(65536);
    world.sched(0).sleep_for(sim::microseconds(3));
    Request* r = c.isend(world.gate(0, 1), 2, m.data(), m.size());
    world.sched(0).sleep_for(sim::microseconds(30));
    c.wait(r);
    c.release(r);
    probe.note(2);
  }, "raiser", 1);
  world.spawn(1, [&] {
    Core& c = world.core(1);
    std::vector<std::uint8_t> m(65536);
    c.recv(world.gate(1, 0), 2, m.data(), m.size());
    probe.note(1);
    c.send(world.gate(1, 0), 1, m.data(), 64);
  }, "peer", 0);
  world.run();
  return probe.str();
}

TEST(BusyWaitSteps, ActiveBitRaisedMidStretchAtFourEndpoints) {
  EXPECT_EQ(active_bit_mid_stretch(1),
            "62756:2 64846:1 67588:0 | end 67588 events 3123 passes 938 "
            "empty 938 busy 67588 lines 3");
  EXPECT_EQ(active_bit_mid_stretch(4),
            "62656:2 64706:1 67448:0 | end 67448 events 2798 passes 937 "
            "empty 937 busy 67448 lines 3");
}

/// Three 64 B round trips, node 1 charging 2 us before each send. Every
/// wait spins through a stretch of empty iterations on both nodes.
void pingpong(Cluster& world, Probe& probe) {
  world.spawn(0, [&] {
    Core& c = world.core(0);
    std::vector<std::uint8_t> b(64);
    for (int i = 0; i < 3; ++i) {
      c.recv(world.gate(0, 1), 1, b.data(), b.size());
      probe.note(0);
      c.send(world.gate(0, 1), 2, b.data(), b.size());
      probe.note(0);
    }
  }, "left", 0);
  world.spawn(1, [&] {
    Core& c = world.core(1);
    std::vector<std::uint8_t> b(64);
    for (int i = 0; i < 3; ++i) {
      charge(2000);
      c.send(world.gate(1, 0), 1, b.data(), b.size());
      probe.note(1);
      c.recv(world.gate(1, 0), 2, b.data(), b.size());
      probe.note(1);
    }
  }, "right", 0);
}

TEST(BusyWaitSteps, TwoRailsStayInTheFiber) {
  ClusterConfig cfg;
  cfg.rails = {net::NicParams::myri10g(), net::NicParams::myri10g()};
  Cluster world(cfg);
  Probe probe(world);
  pingpong(world, probe);
  world.run();
  EXPECT_EQ(probe.str(),
            "3094:1 5213:0 5932:0 8112:1 10831:1 12930:0 13649:0 15849:1 "
            "18568:1 20827:0 21546:0 23766:1 | end 23766 events 369 passes 97 "
            "empty 194 busy 21546 lines 0");
}

/// The pingpong run whole, at one partition.
const char* const kPingpong =
    "3094:1 5193:0 5912:0 8012:1 10731:1 12830:0 13549:0 15649:1 18368:1 "
    "20467:0 21186:0 23286:1 | end 23286 events 483 passes 171 empty 171 "
    "busy 21186 lines 0";

TEST(BusyWaitSteps, StepsStopAtARunUntilDeadline) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  pingpong(world, probe);
  world.engine().run_until(3000);  // both nodes mid-stretch
  EXPECT_EQ(probe.str(),
            "| end 3000 events 14 passes 25 empty 25 busy 3045 lines 0");
  world.run();
  EXPECT_EQ(probe.str(), kPingpong);
}

TEST(BusyWaitSteps, StepsStopAtAStop) {
  Cluster world(ClusterConfig{});
  Probe probe(world);
  pingpong(world, probe);
  world.engine().schedule_at(3000, [&world] { world.engine().stop(); });
  world.run();
  EXPECT_EQ(probe.str(),
            "| end 3000 events 15 passes 25 empty 25 busy 3045 lines 0");
  world.run();
  EXPECT_EQ(probe.str(),
            "3094:1 5193:0 5912:0 8012:1 10731:1 12830:0 13549:0 15649:1 "
            "18368:1 20467:0 21186:0 23286:1 | end 23286 events 484 passes 171 "
            "empty 171 busy 21186 lines 0");  // kPingpong and the stop event
}

TEST(BusyWaitSteps, StepsStayWithinAWindowHorizon) {
  for (const int workers : {1, 2}) {
    ClusterConfig cfg;
    cfg.partitions = 2;
    cfg.workers = workers;
    Cluster world(cfg);
    Probe probe(world);
    pingpong(world, probe);
    world.run();
    EXPECT_EQ(probe.str(),
              "3094:1 5193:0 5912:0 8012:1 10731:1 12830:0 13549:0 15649:1 "
              "18368:1 20467:0 21186:0 23286:1 | end 23286 events 55 passes "
              "171 empty 171 busy 21186 lines 0")
        << "workers " << workers;
  }
}

/// Sets a flag when the frame that holds it is left.
struct Released {
  bool* released;
  ~Released() { *released = true; }
};

// A world destroyed while its waiter is mid-stretch: the waiter's next step
// is pending when node 1's body throws out of the run. The waiter must
// leave its wait without another step running.
TEST(BusyWaitSteps, TeardownMidStretchUnwindsTheWaiter) {
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
      charge(sim::microseconds(5));
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
  EXPECT_EQ(at_throw,
            "5375:1 | end 5375 events 6 passes 49 empty 49 busy 5445 lines 0");
  EXPECT_TRUE(released);
  EXPECT_FALSE(carried_on);
}

}  // namespace
}  // namespace pm2::nm
