#include "simnet/nic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "simthread/scheduler.hpp"

namespace pm2::net {
namespace {

/// Runs @p engine to one tick before @p t, then to @p t: @p nic's next
/// packet must arrive exactly at @p t. Consumes that packet.
void expect_arrival_at(sim::Engine& engine, Nic& nic, sim::Time t) {
  engine.run_until(t - 1);
  EXPECT_FALSE(nic.rx_pending()) << "arrived before " << t;
  engine.run_until(t);
  EXPECT_TRUE(nic.rx_pending()) << "not arrived at " << t;
  nic.poll();
}

/// Arrival time of a lone @p size-byte packet posted at time 0.
sim::Time lone_arrival(const NicParams& p, std::size_t size) {
  const auto wire = static_cast<sim::Time>(
      std::llround(p.wire_ns_per_byte * static_cast<double>(size)));
  return p.tx_dma_delay + wire + p.wire_latency + p.rx_deliver_delay;
}

class NicTest : public ::testing::Test {
 protected:
  NicTest()
      : machine_a_(engine_, "a", mach::CacheTopology::quad_core(),
                   mach::CostBook::xeon_quad()),
        machine_b_(engine_, "b", mach::CacheTopology::quad_core(),
                   mach::CostBook::xeon_quad()),
        fabric_(engine_, "net"),
        nic_a_(machine_a_, fabric_, NicParams::myri10g()),
        nic_b_(machine_b_, fabric_, NicParams::myri10g()) {}

  std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t seed = 1) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
  }

  sim::Engine engine_;
  mach::Machine machine_a_, machine_b_;
  Fabric fabric_;
  Nic nic_a_, nic_b_;
};

TEST_F(NicTest, PortsAssignedInAttachOrder) {
  EXPECT_EQ(nic_a_.port(), 0);
  EXPECT_EQ(nic_b_.port(), 1);
  EXPECT_EQ(fabric_.num_ports(), 2);
  EXPECT_EQ(fabric_.port(0), &nic_a_);
  EXPECT_EQ(fabric_.port(1), &nic_b_);
}

TEST_F(NicTest, DeliversPayloadIntact) {
  auto payload = bytes(100);
  nic_a_.post_send(1, 0, payload);
  engine_.run();
  ASSERT_TRUE(nic_b_.rx_pending());
  auto pkt = nic_b_.poll();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->payload, payload);
  EXPECT_EQ(pkt->src_port, 0);
  EXPECT_EQ(pkt->dst_port, 1);
  EXPECT_EQ(pkt->channel, 0);
  EXPECT_FALSE(nic_b_.rx_pending());
}

TEST_F(NicTest, ArrivalTimeFollowsTimingModel) {
  const std::size_t size = 512;
  nic_a_.post_send(1, 0, bytes(size));
  expect_arrival_at(engine_, nic_b_, lone_arrival(nic_a_.params(), size));
}

TEST_F(NicTest, BackToBackPacketsSerializeOnTheWire) {
  const auto& p = nic_a_.params();
  const std::size_t size = 1000;
  nic_a_.post_send(1, 0, bytes(size));
  nic_a_.post_send(1, 0, bytes(size));
  const sim::Time first = lone_arrival(p, size);
  expect_arrival_at(engine_, nic_b_, first);
  // Second packet queues behind the first's wire occupancy.
  const auto wire = static_cast<sim::Time>(p.wire_ns_per_byte * size);
  expect_arrival_at(engine_, nic_b_, first + wire);
}

TEST_F(NicTest, InOrderDeliveryPerSender) {
  const int kCount = nic_a_.params().tx_queue_depth;  // fill the queue once
  for (int i = 0; i < kCount; ++i) {
    nic_a_.post_send(1, 0, bytes(8, static_cast<std::uint8_t>(i)));
  }
  engine_.run();
  for (int i = 0; i < kCount; ++i) {
    auto pkt = nic_b_.poll();
    ASSERT_TRUE(pkt.has_value()) << i;
    EXPECT_EQ(pkt->payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(pkt->seq, static_cast<std::uint64_t>(i));
  }
}

TEST_F(NicTest, TxQueueDepthEnforced) {
  for (int i = 0; i < nic_a_.params().tx_queue_depth; ++i) {
    ASSERT_TRUE(nic_a_.tx_ready());
    nic_a_.post_send(1, 0, bytes(4096));
  }
  EXPECT_FALSE(nic_a_.tx_ready());
  EXPECT_THROW(nic_a_.post_send(1, 0, bytes(8)), std::logic_error);
  engine_.run();
  EXPECT_TRUE(nic_a_.tx_ready());
}

TEST_F(NicTest, TxNotifierFiresWhenSlotFrees) {
  int notified = 0;
  nic_a_.set_tx_notifier([&] { ++notified; });
  nic_a_.post_send(1, 0, bytes(64));
  engine_.run();
  EXPECT_EQ(notified, 1);
}

TEST_F(NicTest, WireDoneCallbackMarksBufferReusable) {
  // The callback is the send's one completion signal: it fires once, when
  // the wire has absorbed the packet (tx slot freed), before it arrives.
  const NicParams& p = nic_a_.params();
  sim::Time done_at = -1;
  std::size_t inflight_at_done = 1;
  nic_a_.post_send(1, 0, bytes(64), [&] {
    EXPECT_EQ(done_at, -1) << "fired twice";
    done_at = engine_.now();
    inflight_at_done = nic_a_.tx_inflight();
  });
  EXPECT_EQ(done_at, -1);
  EXPECT_EQ(nic_a_.tx_inflight(), 1u);
  engine_.run();
  const auto wire = static_cast<sim::Time>(
      std::llround(p.wire_ns_per_byte * 64.0));
  EXPECT_EQ(done_at, p.tx_dma_delay + wire);
  EXPECT_LT(done_at, lone_arrival(p, 64));
  EXPECT_EQ(inflight_at_done, 0u);
}

TEST_F(NicTest, BadDestinationThrows) {
  EXPECT_THROW(nic_a_.post_send(7, 0, bytes(8)), std::out_of_range);
}

TEST_F(NicTest, PollCostsChargedToContext) {
  // Use a scheduler thread to observe priced polls.
  mth::Scheduler sched(machine_b_);
  nic_a_.post_send(1, 0, bytes(8));
  sim::Time empty_cost = -1, hit_cost = -1;
  sched.spawn([&] {
    sched.sleep_for(sim::microseconds(10));  // let the packet arrive
    sim::Time t0 = engine_.now();
    (void)nic_b_.poll();  // hit
    hit_cost = engine_.now() - t0;
    t0 = engine_.now();
    (void)nic_b_.poll();  // empty
    empty_cost = engine_.now() - t0;
  });
  engine_.run();
  EXPECT_EQ(hit_cost, nic_b_.params().poll_hit_cost);
  EXPECT_EQ(empty_cost, nic_b_.params().poll_empty_cost);
}

TEST_F(NicTest, ChannelsArePreserved) {
  nic_a_.post_send(1, 1, bytes(8));
  engine_.run();
  auto pkt = nic_b_.poll();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->channel, 1);
}

TEST_F(NicTest, StatsAccumulate) {
  nic_a_.post_send(1, 0, bytes(100));
  nic_a_.post_send(1, 0, bytes(50));
  engine_.run();
  (void)nic_b_.poll();
  (void)nic_b_.poll();
  (void)nic_b_.poll();  // empty
  EXPECT_EQ(nic_a_.packets_sent(), 2u);
  EXPECT_EQ(nic_a_.bytes_sent(), 150u);
  EXPECT_EQ(nic_b_.packets_received(), 2u);
  EXPECT_EQ(nic_b_.bytes_received(), 150u);
  EXPECT_EQ(nic_b_.polls_hit(), 2u);
  EXPECT_EQ(nic_b_.polls_empty(), 1u);
}

TEST(NicParamsTest, PresetsDiffer) {
  const auto mx = NicParams::myri10g();
  const auto ib = NicParams::connectx_ib();
  const auto tcp = NicParams::tcp_gige();
  EXPECT_LT(ib.wire_latency, mx.wire_latency);
  EXPECT_LT(ib.wire_ns_per_byte, mx.wire_ns_per_byte);
  EXPECT_GT(tcp.wire_latency, 10 * mx.wire_latency);
  EXPECT_GT(tcp.wire_ns_per_byte, mx.wire_ns_per_byte);
}

TEST(FabricContention, IncastSerializesAtTheDestinationPort) {
  // Two senders fire equal-size packets at one receiver simultaneously:
  // the second delivery must queue behind the first on the egress port.
  sim::Engine engine;
  mach::Machine m(engine, "m", mach::CacheTopology::quad_core(),
                  mach::CostBook::xeon_quad());
  Fabric fabric(engine, "f");
  Nic rx(m, fabric, NicParams::myri10g());
  Nic tx1(m, fabric, NicParams::myri10g());
  Nic tx2(m, fabric, NicParams::myri10g());
  const std::size_t size = 2000;
  std::vector<std::uint8_t> payload(size, 1);
  tx1.post_send(0, 0, payload);
  tx2.post_send(0, 0, payload);
  const sim::Time first = lone_arrival(rx.params(), size);
  expect_arrival_at(engine, rx, first);
  const auto wire = static_cast<sim::Time>(
      std::llround(rx.params().wire_ns_per_byte * static_cast<double>(size)));
  expect_arrival_at(engine, rx, first + wire);
}

TEST(FabricContention, DistinctDestinationsDoNotContend) {
  sim::Engine engine;
  mach::Machine m(engine, "m", mach::CacheTopology::quad_core(),
                  mach::CostBook::xeon_quad());
  Fabric fabric(engine, "f");
  Nic rx1(m, fabric, NicParams::myri10g());
  Nic rx2(m, fabric, NicParams::myri10g());
  Nic tx1(m, fabric, NicParams::myri10g());
  Nic tx2(m, fabric, NicParams::myri10g());
  std::vector<std::uint8_t> payload(2000, 1);
  tx1.post_send(0, 0, payload);
  tx2.post_send(1, 0, payload);
  // Fully parallel paths: both packets land at the lone-packet time.
  const sim::Time t = lone_arrival(rx1.params(), payload.size());
  engine.run_until(t - 1);
  EXPECT_FALSE(rx1.rx_pending());
  EXPECT_FALSE(rx2.rx_pending());
  engine.run_until(t);
  EXPECT_TRUE(rx1.rx_pending());
  EXPECT_TRUE(rx2.rx_pending());
}

TEST_F(NicTest, MultiQueueSteersByKey) {
  nic_b_.configure_rx_queues(4);
  // RSS-style steering: ring = first payload byte % 4.
  nic_b_.set_rx_steer([](const Packet& p) {
    return static_cast<int>(p.payload[0]);
  });
  for (std::uint8_t k : {0, 1, 2, 5, 6}) {  // 5 -> ring 1, 6 -> ring 2
    nic_a_.post_send(1, 0, bytes(8, k));
  }
  engine_.run();
  EXPECT_TRUE(nic_b_.rx_pending());
  EXPECT_TRUE(nic_b_.rx_pending(0));
  EXPECT_TRUE(nic_b_.rx_pending(1));
  EXPECT_TRUE(nic_b_.rx_pending(2));
  EXPECT_FALSE(nic_b_.rx_pending(3));
  // Ring 1 holds keys 1 then 5, in arrival order; draining it leaves the
  // other doorbells up.
  EXPECT_EQ(nic_b_.poll(1)->payload[0], 1);
  EXPECT_EQ(nic_b_.poll(1)->payload[0], 5);
  EXPECT_FALSE(nic_b_.rx_pending(1));
  EXPECT_FALSE(nic_b_.poll(1).has_value());
  EXPECT_TRUE(nic_b_.rx_pending(0));
  EXPECT_TRUE(nic_b_.rx_pending(2));
  EXPECT_EQ(nic_b_.poll(0)->payload[0], 0);
  EXPECT_EQ(nic_b_.poll(2)->payload[0], 2);
  EXPECT_EQ(nic_b_.poll(2)->payload[0], 6);
  EXPECT_FALSE(nic_b_.rx_pending());
}

// The raised-ring mask spans several 64-bit words: next_raised finds the
// lowest raised ring at or after its argument across word boundaries, and
// a drained ring drops out of it.
TEST_F(NicTest, NextRaisedWalksTheDoorbellMask) {
  nic_b_.configure_rx_queues(200);
  nic_b_.set_rx_steer([](const Packet& p) {
    return static_cast<int>(p.payload[0]);
  });
  EXPECT_EQ(nic_b_.next_raised(0), -1);
  for (std::uint8_t k : {3, 64, 130, 199}) nic_a_.post_send(1, 0, bytes(8, k));
  engine_.run();
  EXPECT_EQ(nic_b_.next_raised(0), 3);
  EXPECT_EQ(nic_b_.next_raised(4), 64);
  EXPECT_EQ(nic_b_.next_raised(64), 64);
  EXPECT_EQ(nic_b_.next_raised(65), 130);
  EXPECT_EQ(nic_b_.next_raised(131), 199);
  EXPECT_EQ(nic_b_.next_raised(200), -1);
  ASSERT_TRUE(nic_b_.poll(64).has_value());
  EXPECT_EQ(nic_b_.next_raised(4), 130);
}

TEST_F(NicTest, ConfigureRxQueuesRequiresQuiescedNic) {
  EXPECT_THROW(nic_b_.configure_rx_queues(0), std::invalid_argument);
  nic_a_.post_send(1, 0, bytes(8));
  engine_.run();
  EXPECT_THROW(nic_b_.configure_rx_queues(4), std::logic_error);
  (void)nic_b_.poll();
  EXPECT_THROW(nic_b_.configure_rx_queues(4), std::logic_error);
}

// Regression for the PR 8 quirk found by the seeded multi-producer stress
// suite: poll() used to charge its cost *before* dequeuing, and the charge
// can yield the polling fiber -- a second poller could then act on a stale
// doorbell observation and pop the same (or a missing) packet. The claim
// must be atomic with respect to the yield: with one delivered packet and
// two concurrent pollers, exactly one hits, and the claim stays visible to
// unpriced peeks until the winner's charge completes.
TEST_F(NicTest, PollClaimIsAtomicAcrossYield) {
  mth::Scheduler sched(machine_b_);
  nic_a_.post_send(1, 0, bytes(8));
  int hits = 0, empties = 0;
  bool pending_during_charge = false;
  mth::ThreadAttrs a;
  a.name = "poller0";
  a.bind_core = 0;
  sched.spawn(
      [&] {
        sched.sleep_for(sim::microseconds(10));  // packet has arrived
        nic_b_.poll().has_value() ? ++hits : ++empties;
      },
      a);
  mth::ThreadAttrs b;
  b.name = "poller1";
  b.bind_core = 1;
  sched.spawn(
      [&] {
        sched.sleep_for(sim::microseconds(10));
        sched.work(1);  // land one tick inside the first poller's charge
        pending_during_charge = nic_b_.rx_pending();
        nic_b_.poll().has_value() ? ++hits : ++empties;
      },
      b);
  engine_.run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(empties, 1);
  EXPECT_TRUE(pending_during_charge);
  EXPECT_FALSE(nic_b_.rx_pending());
  EXPECT_EQ(nic_b_.polls_hit(), 1u);
  EXPECT_EQ(nic_b_.polls_empty(), 1u);
}

TEST(NicParamsTest, ThreeNicFabricRoutesCorrectly) {
  sim::Engine engine;
  mach::Machine m(engine, "m", mach::CacheTopology::quad_core(),
                  mach::CostBook::xeon_quad());
  Fabric fabric(engine, "f");
  Nic n0(m, fabric, NicParams::myri10g());
  Nic n1(m, fabric, NicParams::myri10g());
  Nic n2(m, fabric, NicParams::myri10g());
  n0.post_send(2, 0, {1});
  n1.post_send(0, 0, {2});
  engine.run();
  EXPECT_FALSE(n1.rx_pending());
  ASSERT_TRUE(n2.rx_pending());
  ASSERT_TRUE(n0.rx_pending());
  EXPECT_EQ(n2.poll()->payload[0], 1);
  EXPECT_EQ(n0.poll()->payload[0], 2);
}

}  // namespace
}  // namespace pm2::net
