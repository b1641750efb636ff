// pm2sim -- scalable-endpoint tests: tag routing across N endpoints,
// wildcard receives spanning endpoints, per-endpoint counters, poll-thread
// progression at N > 1, and a seeded multi-producer stress workload whose
// matching correctness and run-to-run determinism (same seed => byte
// identical flow trace) gate the whole per-endpoint data path.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/temp_file.hpp"
#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "simcore/random.hpp"
#include "simsan/simsan.hpp"

namespace pm2::nm {
namespace {

TEST(Endpoints, ConfigValidated) {
  ClusterConfig zero;
  zero.endpoints = 0;
  EXPECT_THROW(Cluster{zero}, std::invalid_argument);
  // The wire format carries the endpoint id in one byte.
  ClusterConfig huge;
  huge.endpoints = 256;
  EXPECT_THROW(Cluster{huge}, std::invalid_argument);
}

TEST(Endpoints, ExactTagsRouteByModulo) {
  ClusterConfig cfg;
  cfg.endpoints = 4;
  Cluster world(cfg);
  ASSERT_EQ(world.core(0).num_endpoints(), 4);
  ASSERT_EQ(world.core(1).num_endpoints(), 4);
  constexpr int kTags = 8;
  world.spawn(0, [&world] {
    Core& c = world.core(0);
    std::vector<std::uint32_t> vals(kTags);
    std::vector<Request*> reqs;
    for (int t = 0; t < kTags; ++t) {
      vals[static_cast<std::size_t>(t)] =
          0xA0000000u + static_cast<std::uint32_t>(t);
      Request* r =
          c.isend(world.gate(0, 1), static_cast<Tag>(t),
                  &vals[static_cast<std::size_t>(t)], sizeof(std::uint32_t));
      EXPECT_EQ(r->endpoint(), t % 4);
      reqs.push_back(r);
    }
    for (Request* r : reqs) {
      c.wait(r);
      c.release(r);
    }
  });
  world.spawn(1, [&world] {
    Core& c = world.core(1);
    std::vector<std::uint32_t> got(kTags, 0);
    std::vector<Request*> reqs;
    for (int t = 0; t < kTags; ++t) {
      Request* r =
          c.irecv(world.gate(1, 0), static_cast<Tag>(t),
                  &got[static_cast<std::size_t>(t)], sizeof(std::uint32_t));
      EXPECT_EQ(r->endpoint(), t % 4);
      reqs.push_back(r);
    }
    for (int t = 0; t < kTags; ++t) {
      c.wait(reqs[static_cast<std::size_t>(t)]);
      EXPECT_EQ(got[static_cast<std::size_t>(t)],
                0xA0000000u + static_cast<std::uint32_t>(t));
      c.release(reqs[static_cast<std::size_t>(t)]);
    }
  });
  world.run();
  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
}

TEST(Endpoints, RendezvousOnNonZeroEndpoint) {
  ClusterConfig cfg;
  cfg.endpoints = 4;
  Cluster world(cfg);
  static constexpr std::size_t kBig = 96 * 1024;
  std::vector<std::uint8_t> data(kBig);
  for (std::size_t i = 0; i < kBig; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  world.spawn(0, [&world, &data] {
    world.core(0).send(world.gate(0, 1), 7, data.data(), data.size());
  });
  world.spawn(1, [&world, &data] {
    Core& c = world.core(1);
    std::vector<std::uint8_t> buf(kBig, 0);
    Request* r = c.irecv(world.gate(1, 0), 7, buf.data(), buf.size());
    EXPECT_EQ(r->endpoint(), 3);  // 7 % 4
    c.wait(r);
    EXPECT_EQ(r->received_length(), kBig);
    EXPECT_EQ(buf, data);
    c.release(r);
  });
  world.run();
}

TEST(Endpoints, WildcardClaimsPostedAcrossEndpoints) {
  ClusterConfig cfg;
  cfg.endpoints = 4;
  Cluster world(cfg);
  world.spawn(0, [&world] {
    // Give the receiver time to park its wildcard first.
    world.sched(0).work(sim::microseconds(30));
    std::uint32_t v = 0xBEEF;
    world.core(0).send(world.gate(0, 1), 5, &v, sizeof(v));
  });
  world.spawn(1, [&world] {
    Core& c = world.core(1);
    std::uint32_t got = 0;
    Request* r = c.irecv(world.gate(1, 0), kAnyTag, &got, sizeof(got));
    c.wait(r);
    EXPECT_EQ(got, 0xBEEFu);
    EXPECT_EQ(r->matched_tag(), 5u);
    EXPECT_EQ(r->endpoint(), 1);  // bound at claim time: 5 % 4
    c.release(r);
  });
  world.run();
}

TEST(Endpoints, WildcardAdoptsUnexpectedAcrossEndpoints) {
  ClusterConfig cfg;
  cfg.endpoints = 4;
  Cluster world(cfg);
  world.spawn(0, [&world] {
    Core& c = world.core(0);
    std::uint32_t a = 1, b = 2;
    c.send(world.gate(0, 1), 9, &a, sizeof(a));  // endpoint 1
    c.send(world.gate(0, 1), 6, &b, sizeof(b));  // endpoint 2
  });
  world.spawn(1, [&world] {
    world.sched(1).work(sim::microseconds(30));  // both land unexpected
    Core& c = world.core(1);
    // Unexpected adoption scans endpoints in id order, so the endpoint-1
    // message is adopted first regardless of global send order (each
    // endpoint is an independent channel; only per-endpoint order holds).
    std::uint32_t got = 0;
    Request* r1 = c.irecv(world.gate(1, 0), kAnyTag, &got, sizeof(got));
    c.wait(r1);
    EXPECT_EQ(r1->matched_tag(), 9u);
    EXPECT_EQ(r1->endpoint(), 1);
    EXPECT_EQ(got, 1u);
    c.release(r1);
    Request* r2 = c.irecv(world.gate(1, 0), kAnyTag, &got, sizeof(got));
    c.wait(r2);
    EXPECT_EQ(r2->matched_tag(), 6u);
    EXPECT_EQ(r2->endpoint(), 2);
    EXPECT_EQ(got, 2u);
    c.release(r2);
  });
  world.run();
}

TEST(Endpoints, WildcardAndExactCoexistAcrossEndpoints) {
  ClusterConfig cfg;
  cfg.endpoints = 4;
  Cluster world(cfg);
  world.spawn(0, [&world] {
    Core& c = world.core(0);
    std::uint32_t a = 10, b = 20;
    c.send(world.gate(0, 1), 7, &a, sizeof(a));  // endpoint 3
    c.send(world.gate(0, 1), 8, &b, sizeof(b));  // endpoint 0
  });
  world.spawn(1, [&world] {
    Core& c = world.core(1);
    std::uint32_t exact = 0, any = 0;
    // Exact tag-8 posted first, wildcard second: tag-7 (another endpoint)
    // must flow to the wildcard, tag-8 to the exact receive.
    Request* r8 = c.irecv(world.gate(1, 0), 8, &exact, sizeof(exact));
    Request* rw = c.irecv(world.gate(1, 0), kAnyTag, &any, sizeof(any));
    c.wait(r8);
    c.wait(rw);
    EXPECT_EQ(exact, 20u);
    EXPECT_EQ(any, 10u);
    EXPECT_EQ(rw->matched_tag(), 7u);
    c.release(r8);
    c.release(rw);
  });
  world.run();
}

TEST(Endpoints, PerEndpointCountersTrack) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  {
    ClusterConfig cfg;
    cfg.endpoints = 2;
    Cluster world(cfg);
    world.spawn(0, [&world] {
      Core& c = world.core(0);
      std::uint32_t v = 1;
      c.send(world.gate(0, 1), 0, &v, sizeof(v));  // endpoint 0
      c.send(world.gate(0, 1), 1, &v, sizeof(v));  // endpoint 1
      c.send(world.gate(0, 1), 3, &v, sizeof(v));  // endpoint 1
    });
    world.spawn(1, [&world] {
      Core& c = world.core(1);
      std::uint32_t v = 0;
      c.recv(world.gate(1, 0), 0, &v, sizeof(v));
      c.recv(world.gate(1, 0), 1, &v, sizeof(v));
      c.recv(world.gate(1, 0), 3, &v, sizeof(v));
    });
    world.run();
    EXPECT_EQ(reg.counter_value("nmad.ep", "node0", "sends", 0).value_or(0),
              1u);
    EXPECT_EQ(reg.counter_value("nmad.ep", "node0", "sends", 1).value_or(0),
              2u);
    EXPECT_EQ(reg.counter_value("nmad.ep", "node1", "recvs", 0).value_or(0),
              1u);
    EXPECT_EQ(reg.counter_value("nmad.ep", "node1", "recvs", 1).value_or(0),
              2u);
    // The aggregate core counters still see every operation.
    EXPECT_EQ(reg.counter_value("nmad", "node0", "sends"), 3u);
    EXPECT_EQ(reg.counter_value("nmad", "node1", "recvs"), 3u);
  }
  reg.set_enabled(false);
}

TEST(Endpoints, PollThreadProgressionMultiEndpoint) {
  ClusterConfig cfg;
  cfg.endpoints = 2;
  cfg.partitions = 2;  // per-endpoint poll fibers pin to the node partition
  cfg.nm.progress = ProgressMode::kPollThread;
  cfg.nm.poll_core = 1;
  Cluster world(cfg);
  world.core(0).start_poll_thread();
  world.core(1).start_poll_thread();
  world.spawn(0, [&world] {
    Core& c = world.core(0);
    std::uint32_t a = 11, b = 22, sum = 0;
    c.send(world.gate(0, 1), 2, &a, sizeof(a));  // endpoint 0
    c.send(world.gate(0, 1), 3, &b, sizeof(b));  // endpoint 1
    c.recv(world.gate(0, 1), 4, &sum, sizeof(sum));
    EXPECT_EQ(sum, 33u);
    world.core(0).stop_poll_thread();
  }, "ping", 0);
  world.spawn(1, [&world] {
    Core& c = world.core(1);
    std::uint32_t a = 0, b = 0;
    c.recv(world.gate(1, 0), 2, &a, sizeof(a));
    c.recv(world.gate(1, 0), 3, &b, sizeof(b));
    std::uint32_t sum = a + b;
    c.send(world.gate(1, 0), 4, &sum, sizeof(sum));
    world.core(1).stop_poll_thread();
  }, "pong", 0);
  world.run();
  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
}

// --- seeded multi-producer stress -----------------------------------------
//
// M producer threads on node 0 send a seeded schedule of messages to node 1;
// tags below kExactTags are consumed by pre-posted exact receives (one
// consumer fiber per tag), the rest by pre-posted wildcard receives split
// over two consumer fibers. Every payload is self-describing (producer,
// tag, per-(producer,tag) sequence, length, then a seeded byte pattern), so
// each delivery is checked for integrity, correct tag, correct endpoint
// binding, and per-(producer, tag) FIFO -- the MPI non-overtaking rule,
// which per-endpoint channels must preserve for any fixed tag.

struct MsgSpec {
  Tag tag = 0;
  std::uint32_t len = 0;
  std::uint32_t pair_seq = 0;  ///< per (producer, tag) sequence number
};

constexpr int kProducers = 4;
constexpr int kMsgsPerProducer = 12;
constexpr Tag kExactTags = 6;  ///< tags [0, 6) -> exact receives
constexpr Tag kWildTags = 6;   ///< tags [6, 12) -> wildcard receives
constexpr int kStressEndpoints = 4;
constexpr std::size_t kHeader = 16;
constexpr std::size_t kMaxLen = 96 * 1024;

std::uint8_t pattern_byte(std::uint32_t producer, std::uint32_t tag,
                          std::uint32_t pair_seq, std::size_t i) {
  return static_cast<std::uint8_t>(producer * 151 + tag * 43 + pair_seq * 17 +
                                   i * 131 + 5);
}

std::vector<std::uint8_t> make_message(std::uint32_t producer,
                                       const MsgSpec& m) {
  std::vector<std::uint8_t> buf(m.len);
  const auto tag32 = static_cast<std::uint32_t>(m.tag);
  std::memcpy(buf.data(), &producer, 4);
  std::memcpy(buf.data() + 4, &tag32, 4);
  std::memcpy(buf.data() + 8, &m.pair_seq, 4);
  std::memcpy(buf.data() + 12, &m.len, 4);
  for (std::size_t i = kHeader; i < m.len; ++i) {
    buf[i] = pattern_byte(producer, tag32, m.pair_seq, i);
  }
  return buf;
}

/// Both sides derive the whole message schedule from the seed alone.
std::vector<std::vector<MsgSpec>> make_schedule(std::uint64_t seed) {
  std::vector<std::vector<MsgSpec>> out(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    sim::Rng rng(seed + 0x9E3779B97F4A7C15ull *
                            static_cast<std::uint64_t>(p + 1));
    std::map<Tag, std::uint32_t> next_seq;
    for (int i = 0; i < kMsgsPerProducer; ++i) {
      MsgSpec m;
      m.tag = rng.bernoulli(0.5) ? kExactTags + rng.next_below(kWildTags)
                                 : rng.next_below(kExactTags);
      const std::size_t body = rng.bernoulli(0.15)
                                   ? 48 * 1024 + rng.next_below(32 * 1024)
                                   : rng.next_below(2048);
      m.len = static_cast<std::uint32_t>(kHeader + body);
      m.pair_seq = next_seq[m.tag]++;
      out[static_cast<std::size_t>(p)].push_back(m);
    }
  }
  return out;
}

/// Check one delivered message against its self-describing payload and the
/// per-(producer, tag) FIFO order seen so far by this consumer. (Each
/// consumer's deliveries are a subsequence of the per-pair seq order, so
/// strict monotonicity per pair must hold within any single consumer.)
void verify_message(const Request& r, const std::vector<std::uint8_t>& buf,
                    bool wildcard, Tag exact_tag,
                    std::map<std::uint64_t, std::int64_t>& last_seq) {
  ASSERT_GE(r.received_length(), kHeader);
  std::uint32_t producer = 0, tag = 0, pair_seq = 0, len = 0;
  std::memcpy(&producer, buf.data(), 4);
  std::memcpy(&tag, buf.data() + 4, 4);
  std::memcpy(&pair_seq, buf.data() + 8, 4);
  std::memcpy(&len, buf.data() + 12, 4);
  EXPECT_EQ(r.received_length(), len);
  if (wildcard) {
    EXPECT_GE(tag, static_cast<std::uint32_t>(kExactTags));
    EXPECT_EQ(r.matched_tag(), tag);
  } else {
    EXPECT_EQ(tag, static_cast<std::uint32_t>(exact_tag));
  }
  EXPECT_EQ(r.endpoint(), static_cast<int>(tag % kStressEndpoints));
  std::size_t bad = 0;
  bool ok = true;
  for (std::size_t i = kHeader; i < len && ok; ++i) {
    if (buf[i] != pattern_byte(producer, tag, pair_seq, i)) {
      ok = false;
      bad = i;
    }
  }
  EXPECT_TRUE(ok) << "payload mismatch at byte " << bad << " (producer "
                  << producer << " tag " << tag << " seq " << pair_seq << ")";
  const std::uint64_t key = (static_cast<std::uint64_t>(producer) << 32) | tag;
  auto it = last_seq.find(key);
  if (it != last_seq.end()) {
    EXPECT_GT(static_cast<std::int64_t>(pair_seq), it->second)
        << "per-(producer " << producer << ", tag " << tag
        << ") order violated";
  }
  last_seq[key] = pair_seq;
}

struct StressResult {
  std::uint64_t events = 0;
  sim::Time final_time = 0;
  std::vector<char> trace;  ///< the binary flow/trace log, byte for byte
};

/// Read back the flow trace the world wrote to @p path and delete the file.
std::vector<char> take_file(const std::string& path) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  return bytes;
}

/// @p trace_name names the world's binary flow trace under the test's
/// per-process temp prefix.
StressResult run_stress(std::uint64_t seed, const std::string& trace_name,
                        int rx_queues = 1, bool simsan = false) {
  const auto schedule = make_schedule(seed);
  ClusterConfig cfg;
  cfg.endpoints = kStressEndpoints;
  cfg.rx_queues = rx_queues;
  Cluster world(cfg);
  world.enable_flow_trace();
  if (simsan) world.enable_simsan();

  for (int p = 0; p < kProducers; ++p) {
    world.spawn(0, [&world, &schedule, p, seed] {
      Core& c = world.core(0);
      sim::Rng delay(seed ^ (0xD1B54A32D192ED03ull *
                             static_cast<std::uint64_t>(p + 1)));
      std::vector<std::vector<std::uint8_t>> bufs;
      std::vector<Request*> pending;
      const auto& list = schedule[static_cast<std::size_t>(p)];
      bufs.reserve(list.size());  // buffers must not move while in flight
      // Let the consumers pre-post everything first: exact-range arrivals
      // must always find their posted receive, or a parked wildcard would
      // (correctly, per matching semantics) claim them and skew the
      // schedule-derived receive counts.
      world.sched(0).work(sim::microseconds(500));
      for (const MsgSpec& m : list) {
        world.sched(0).work(
            sim::nanoseconds(100 + static_cast<sim::Time>(
                                       delay.next_below(3000))));
        bufs.push_back(make_message(static_cast<std::uint32_t>(p), m));
        Request* r = c.isend(world.gate(0, 1), m.tag, bufs.back().data(),
                             bufs.back().size());
        EXPECT_EQ(r->endpoint(), static_cast<int>(m.tag % kStressEndpoints));
        pending.push_back(r);
        if (pending.size() >= 4) {
          c.wait(pending.front());
          c.release(pending.front());
          pending.erase(pending.begin());
        }
      }
      for (Request* r : pending) {
        c.wait(r);
        c.release(r);
      }
    }, "prod" + std::to_string(p));
  }

  // Receive counts are derived from the shared schedule: consumers pre-post
  // everything, so exact-tag arrivals always find their posted receive and
  // the wildcard pool absorbs exactly the wildcard-range messages.
  std::array<int, kExactTags> exact_count{};
  int wild_count = 0;
  for (const auto& list : schedule) {
    for (const MsgSpec& m : list) {
      if (m.tag < kExactTags) {
        ++exact_count[static_cast<std::size_t>(m.tag)];
      } else {
        ++wild_count;
      }
    }
  }

  for (Tag t = 0; t < kExactTags; ++t) {
    const int n = exact_count[static_cast<std::size_t>(t)];
    if (n == 0) continue;
    world.spawn(1, [&world, t, n] {
      Core& c = world.core(1);
      std::vector<std::vector<std::uint8_t>> bufs(
          static_cast<std::size_t>(n), std::vector<std::uint8_t>(kMaxLen));
      std::vector<Request*> reqs;
      for (int i = 0; i < n; ++i) {
        reqs.push_back(c.irecv(world.gate(1, 0), t,
                               bufs[static_cast<std::size_t>(i)].data(),
                               kMaxLen));
      }
      std::map<std::uint64_t, std::int64_t> last_seq;
      for (int i = 0; i < n; ++i) {
        c.wait(reqs[static_cast<std::size_t>(i)]);
        verify_message(*reqs[static_cast<std::size_t>(i)],
                       bufs[static_cast<std::size_t>(i)], /*wildcard=*/false,
                       t, last_seq);
        c.release(reqs[static_cast<std::size_t>(i)]);
      }
    }, "exact" + std::to_string(t));
  }

  for (int w = 0; w < 2; ++w) {
    const int share = wild_count / 2 + (w < wild_count % 2 ? 1 : 0);
    if (share == 0) continue;
    world.spawn(1, [&world, share] {
      Core& c = world.core(1);
      std::vector<std::vector<std::uint8_t>> bufs(
          static_cast<std::size_t>(share),
          std::vector<std::uint8_t>(kMaxLen));
      std::vector<Request*> reqs;
      for (int i = 0; i < share; ++i) {
        reqs.push_back(c.irecv(world.gate(1, 0), kAnyTag,
                               bufs[static_cast<std::size_t>(i)].data(),
                               kMaxLen));
      }
      std::map<std::uint64_t, std::int64_t> last_seq;
      for (int i = 0; i < share; ++i) {
        c.wait(reqs[static_cast<std::size_t>(i)]);
        verify_message(*reqs[static_cast<std::size_t>(i)],
                       bufs[static_cast<std::size_t>(i)], /*wildcard=*/true,
                       kAnyTag, last_seq);
        c.release(reqs[static_cast<std::size_t>(i)]);
      }
    }, "wild" + std::to_string(w));
  }

  world.run();
  const std::string trace_path = test::temp_file(trace_name);
  world.write_trace_binary(trace_path);

  EXPECT_EQ(world.core(0).active_requests(), 0);
  EXPECT_EQ(world.core(1).active_requests(), 0);
  StressResult res;
  res.events = world.engine().events_executed();
  res.final_time = world.engine().now();
  res.trace = take_file(trace_path);
  return res;
}

TEST(EndpointStress, SeededMultiProducerMatches) {
  run_stress(0xC0FFEEull, "pm2sim_ep_stress_a.trace.bin");
}

TEST(EndpointStress, SameSeedSameFlowTrace) {
  const StressResult a = run_stress(42, "pm2sim_ep_stress_r1.trace.bin");
  const StressResult b = run_stress(42, "pm2sim_ep_stress_r2.trace.bin");
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_time, b.final_time);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);  // same seed => byte-identical flow trace
  // A different seed must actually change the workload.
  const StressResult c = run_stress(43, "pm2sim_ep_stress_r3.trace.bin");
  EXPECT_NE(a.trace, c.trace);
}

// Multi-queue rails under the full stress mix (exact + wildcard tags,
// out-of-order rendezvous, parked packets): every endpoints x rx_queues
// combination must deliver every message correctly, including a queue
// count that does not divide the endpoint count (ring sharing via
// ep % rx_queues).
TEST(EndpointStress, RxQueueSweepMatches) {
  for (int rxq : {2, 3, 4}) {
    SCOPED_TRACE("rx_queues=" + std::to_string(rxq));
    run_stress(0xC0FFEEull,
               "pm2sim_ep_stress_q" + std::to_string(rxq) + ".trace.bin",
               rxq);
  }
}

// The lock-free multi-queue drain must stay schedule-deterministic: the
// same seed gives a byte-identical flow trace at any fixed rx_queues.
TEST(EndpointStress, SameSeedSameFlowTraceMultiQueue) {
  const StressResult a =
      run_stress(42, "pm2sim_ep_stress_mq1.trace.bin", /*rx_queues=*/4);
  const StressResult b =
      run_stress(42, "pm2sim_ep_stress_mq2.trace.bin", /*rx_queues=*/4);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_time, b.final_time);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  const StressResult c =
      run_stress(43, "pm2sim_ep_stress_mq3.trace.bin", /*rx_queues=*/4);
  EXPECT_NE(a.trace, c.trace);
}

std::uint64_t fnv1a64(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden flow trace of the seed-42 stress over one shared ring: pins the
// serialized single-queue drain (the priced rx try-lock) and per-gate match
// order there -- rendezvous RTS chunks that overtake earlier eagers of
// their gate wait for them before they match. If a later change
// intentionally alters the seed-42 schedule, recapture the hash and size.
TEST(EndpointStress, RxQueuesOneTracePinned) {
  const StressResult res =
      run_stress(42, "pm2sim_ep_stress_p1.trace.bin", /*rx_queues=*/1);
  EXPECT_EQ(res.trace.size(), 13876u);
  EXPECT_EQ(fnv1a64(res.trace), 0x7495a7da8f4598d5ull);
}

// The same golden for the multi-queue drain: four endpoints over four
// rings, one ring each. Pins the per-ring doorbell order, the ownership
// flag and the dispatch-or-park path at M > 1.
TEST(EndpointStress, RxQueuesFourTracePinned) {
  const StressResult res =
      run_stress(42, "pm2sim_ep_stress_p4.trace.bin", /*rx_queues=*/4);
  EXPECT_EQ(res.trace.size(), 13876u);
  EXPECT_EQ(fnv1a64(res.trace), 0x671b263e3c1b172cull);
}

// --- 64 endpoints: the fanin shape of BM_ConcurrentSenders /64 ------------
//
// 64 sender fibers on node 0 each isend 16 x 64 B on their own tag (tag t
// lives on endpoint t) to a receiver fiber on node 1 that pre-posted all 16,
// under fine locking on the dual quad-core testbed. Each receiver waits on
// its own endpoint and steals from the other 63, so every progression pass
// crosses all 64 endpoints and, at rx_queues = 64, all 64 rings.

constexpr int kFaninPairs = 64;
constexpr int kFaninMsgs = 16;

StressResult run_fanin64(int rx_queues, const std::string& trace_name,
                         bool simsan = false) {
  ClusterConfig cfg;
  cfg.topology = mach::CacheTopology::dual_quad_core();
  cfg.nm.lock = LockMode::kFine;
  cfg.endpoints = kFaninPairs;
  cfg.rx_queues = rx_queues;
  Cluster world(cfg);
  world.enable_flow_trace();
  if (simsan) world.enable_simsan();
  // Senders start once every receiver has posted its window.
  const sim::Time settle = sim::microseconds(kFaninPairs * 5);
  int received = 0;
  for (int t = 0; t < kFaninPairs; ++t) {
    const Tag tag = static_cast<Tag>(t);
    world.spawn(0, [&world, tag, t, settle] {
      Core& c = world.core(0);
      world.sched(0).sleep_for(settle);
      std::vector<std::uint8_t> m(64, static_cast<std::uint8_t>(t));
      std::vector<Request*> win;
      for (int i = 0; i < kFaninMsgs; ++i) {
        win.push_back(c.isend(world.gate(0, 1), tag, m.data(), m.size()));
      }
      for (Request* r : win) {
        c.wait(r);
        c.release(r);
      }
    });
    world.spawn(1, [&world, &received, tag, t] {
      Core& c = world.core(1);
      std::vector<std::vector<std::uint8_t>> bufs(
          kFaninMsgs, std::vector<std::uint8_t>(64));
      std::vector<Request*> reqs;
      for (auto& b : bufs) {
        reqs.push_back(c.irecv(world.gate(1, 0), tag, b.data(), b.size()));
      }
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        c.wait(reqs[i]);
        EXPECT_EQ(reqs[i]->received_length(), 64u);
        EXPECT_EQ(bufs[i][0], static_cast<std::uint8_t>(t));
        c.release(reqs[i]);
        ++received;
      }
    });
  }
  // Capped, so a lost wakeup fails the count instead of spinning forever.
  world.engine().run_until(sim::milliseconds(10));
  EXPECT_EQ(received, kFaninPairs * kFaninMsgs);
  const std::string trace_path = test::temp_file(trace_name);
  world.write_trace_binary(trace_path);
  StressResult res;
  res.events = world.engine().events_executed();
  res.trace = take_file(trace_path);
  return res;
}

// Golden flow traces of the 64-endpoint fanin over one shared ring and over
// one ring per endpoint: they pin the progression pass's endpoint order and
// the drain's ring order at N = 64, where the seed-42 stress stops at 4.
TEST(EndpointStress, SixtyFourEndpointTracesPinned) {
  const StressResult one =
      run_fanin64(/*rx_queues=*/1, "pm2sim_ep64_q1.trace.bin");
  EXPECT_EQ(one.trace.size(), 294964u);
  EXPECT_EQ(fnv1a64(one.trace), 0x85c478c93ce040a3ull);
  const StressResult many =
      run_fanin64(/*rx_queues=*/64, "pm2sim_ep64_q64.trace.bin");
  EXPECT_EQ(many.trace.size(), 294964u);
  EXPECT_EQ(fnv1a64(many.trace), 0xc470ac6250c2a8a3ull);
}

/// Findings of @p rule in the last simsan run (they outlive the world).
std::size_t findings_of(const std::string& rule) {
  std::size_t n = 0;
  for (const san::Finding& f : san::Analyzer::global().findings()) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// The active-endpoint invariant, checked by simsan inside every progression
// pass: an endpoint the pass skips has nothing queued. A missed mark shows
// up here even when the schedule it moves is not pinned.
TEST(EndpointStress, SkippedEndpointsIdleUnderSimsan) {
  const std::string rule = "progress-skipped-busy-endpoint";
  for (int rxq : {1, 4}) {
    SCOPED_TRACE("stress, rx_queues=" + std::to_string(rxq));
    run_stress(42, "pm2sim_ep_stress_san.trace.bin", rxq,
               /*simsan=*/true);
    EXPECT_EQ(findings_of(rule), 0u);
  }
  for (int rxq : {1, 64}) {
    SCOPED_TRACE("fanin64, rx_queues=" + std::to_string(rxq));
    run_fanin64(rxq, "pm2sim_ep64_san.trace.bin", /*simsan=*/true);
    EXPECT_EQ(findings_of(rule), 0u);
  }
}

}  // namespace
}  // namespace pm2::nm
