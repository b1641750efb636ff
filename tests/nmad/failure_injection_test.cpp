// Failure injection: malformed wire data and traffic from unknown peers
// must be contained (dropped / rejected), never corrupt matching state.
// Every rejected packet or chunk is counted in the receiver's nmad
// rx_rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "nmad/cluster.hpp"
#include "nmad/wire_format.hpp"
#include "obs/metrics.hpp"

namespace pm2::nm {
namespace {

/// Enables the metrics registry for one test, so rx_rejected counts.
class RegistryOn {
 public:
  RegistryOn() { obs::MetricsRegistry::global().set_enabled(true); }
  ~RegistryOn() { obs::MetricsRegistry::global().set_enabled(false); }
  RegistryOn(const RegistryOn&) = delete;
  RegistryOn& operator=(const RegistryOn&) = delete;
};

std::uint64_t rejected(const char* node) {
  return obs::MetricsRegistry::global()
      .counter_value("nmad", node, "rx_rejected")
      .value_or(0);
}

TEST(FailureInjection, PacketFromUnknownPortIsDropped) {
  // A rogue NIC attaches to the fabric after the cluster wired its gates;
  // its packet reaches node 1's NIC from a port no gate was wired for. The
  // receive side connects to the new port lazily, then rejects the three
  // garbage bytes.
  RegistryOn registry;
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  net::Nic rogue(world.machine(0), world.nic(0, 0).fabric(),
                 net::NicParams::myri10g());
  rogue.post_send(/*dst_port=*/1, 0, {1, 2, 3});

  bool got_real_message = false;
  world.spawn(0, [&world] {
    world.sched(0).work(sim::microseconds(20));  // rogue packet lands first
    std::uint8_t v = 9;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
  });
  world.spawn(1, [&world, &got_real_message] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
    got_real_message = (v == 9);
  });
  world.run();
  EXPECT_TRUE(got_real_message);
  // The rogue packet was consumed (polled) and dropped.
  EXPECT_GE(world.nic(1, 0).packets_received(), 2u);
  EXPECT_EQ(rejected("node1"), 1u);
}

TEST(FailureInjection, MalformedPayloadIsRejectedNotCrashed) {
  // Garbage bytes injected on the legitimate peer's port: the reader must
  // poison and the library keep functioning for the next good message.
  RegistryOn registry;
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  bool ok = false;
  world.spawn(0, [&world, &ok] {
    // Inject garbage below the nmad layer, straight into the NIC.
    world.nic(0, 0).post_send(1, 0, {0xFF, 0xFF, 0xFF, 0x01, 0x02});
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 7;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
    std::uint8_t r = 0;
    world.core(0).recv(world.gate(0, 1), 2, &r, 1);
    ok = (r == 8);
  });
  world.spawn(1, [&world] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
    const std::uint8_t reply = static_cast<std::uint8_t>(v + 1);
    world.core(1).send(world.gate(1, 0), 2, &reply, 1);
  });
  world.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(rejected("node1"), 1u);
  EXPECT_EQ(rejected("node0"), 0u);
}

TEST(FailureInjection, TruncatedChunkCountHandled) {
  RegistryOn registry;
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  bool ok = false;
  world.spawn(0, [&world, &ok] {
    world.nic(0, 0).post_send(1, 0, {0x05});  // half a chunk-count field
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 1;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
    ok = true;
  });
  world.spawn(1, [&world] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
  });
  world.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(rejected("node1"), 1u);
}

TEST(FailureInjection, ChunkCountLyingAboutContentIsContained) {
  // Header claims 3 chunks but carries none: reader must stop at the
  // malformed boundary without touching matching state.
  RegistryOn registry;
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  world.spawn(0, [&world] {
    world.nic(0, 0).post_send(1, 0, {0x03, 0x00});
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 1;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
  });
  bool delivered = false;
  world.spawn(1, [&world, &delivered] {
    std::uint8_t v = 0;
    world.core(1).recv(world.gate(1, 0), 1, &v, 1);
    delivered = (v == 1);
  });
  world.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(rejected("node1"), 1u);
}

// --- well-framed chunks whose fields disagree --------------------------------

constexpr Tag kBadTag = 5;

ChunkHeader chunk(ChunkKind kind, std::uint32_t offset, std::uint32_t len,
                  std::uint32_t total) {
  ChunkHeader h;
  h.kind = kind;
  h.tag = kBadTag;
  h.msg_seq = 1000;  // clear of the good traffic's sequence numbers
  h.offset = offset;
  h.chunk_len = len;
  h.total_len = total;
  return h;
}

struct Outcome {
  bool good = false;            ///< the good message arrived intact
  std::size_t bad_bytes = 0;    ///< bytes the kBadTag receive holds
  bool bad_completed = false;   ///< the kBadTag receive completed
};

/// Node 0 posts each chunk as its own packet straight into its NIC, then
/// sends one good message on tag 1. Node 1 posts a @p capacity-byte
/// kBadTag receive before the chunks land (after the good message when
/// @p capacity is 0, so it adopts whatever was stored unexpected), and
/// receives the good message. Exactly one chunk must be rejected.
Outcome inject(const std::vector<ChunkHeader>& chunks, std::size_t capacity) {
  RegistryOn registry;
  Cluster world(ClusterConfig{});
  Outcome out;
  std::vector<std::uint8_t> bad_buf(256);
  Request* bad = nullptr;
  world.spawn(0, [&] {
    world.sched(0).work(sim::microseconds(5));  // node 1 posts first
    for (const ChunkHeader& h : chunks) {
      const std::vector<std::uint8_t> data(h.chunk_len, 0xAB);
      PacketBuilder b;
      b.add_chunk(h, data.data());
      world.nic(0, 0).post_send(1, 0, b.take().linearize());
    }
    world.sched(0).work(sim::microseconds(20));
    std::uint8_t v = 9;
    world.core(0).send(world.gate(0, 1), 1, &v, 1);
  });
  world.spawn(1, [&] {
    Core& c = world.core(1);
    if (capacity > 0) {
      bad = c.irecv(world.gate(1, 0), kBadTag, bad_buf.data(), capacity);
    }
    std::uint8_t v = 0;
    c.recv(world.gate(1, 0), 1, &v, 1);
    out.good = v == 9;
    if (bad == nullptr) {
      bad = c.irecv(world.gate(1, 0), kBadTag, bad_buf.data(), 64);
    }
  });
  world.run();
  out.bad_bytes = bad->received_length();
  out.bad_completed = bad->completed();
  EXPECT_EQ(rejected("node1"), 1u);
  return out;
}

TEST(FailureInjection, ChunkLongerThanItsMessageIsDropped) {
  const Outcome o = inject({chunk(ChunkKind::kEager, 0, 8, 4)}, 64);
  EXPECT_TRUE(o.good);
  EXPECT_EQ(o.bad_bytes, 0u);
  EXPECT_FALSE(o.bad_completed);
}

TEST(FailureInjection, ChunkPastTheEndOfAPostedReceiveIsDropped) {
  // Offset 60 + 8 bytes in a 64-byte message: would write past the buffer.
  const Outcome o = inject({chunk(ChunkKind::kEager, 60, 8, 64)}, 64);
  EXPECT_TRUE(o.good);
  EXPECT_EQ(o.bad_bytes, 0u);
  EXPECT_FALSE(o.bad_completed);
}

TEST(FailureInjection, ChunkPastTheEndOfAnUnexpectedMessageIsDropped) {
  const Outcome o = inject({chunk(ChunkKind::kEager, 60, 8, 64)}, 0);
  EXPECT_TRUE(o.good);
  EXPECT_EQ(o.bad_bytes, 0u);  // nothing was stored for the late receive
  EXPECT_FALSE(o.bad_completed);
}

TEST(FailureInjection, ChunkOverfillingABoundMessageIsDropped) {
  const Outcome o = inject({chunk(ChunkKind::kEager, 0, 32, 64),
                            chunk(ChunkKind::kEager, 0, 64, 64)},
                           64);
  EXPECT_TRUE(o.good);
  EXPECT_EQ(o.bad_bytes, 32u);  // only the first, well-formed chunk landed
  EXPECT_FALSE(o.bad_completed);
}

TEST(FailureInjection, ChunkChangingABoundMessageLengthIsDropped) {
  const Outcome o = inject({chunk(ChunkKind::kEager, 0, 32, 64),
                            chunk(ChunkKind::kEager, 32, 64, 128)},
                           256);
  EXPECT_TRUE(o.good);
  EXPECT_EQ(o.bad_bytes, 32u);
  EXPECT_FALSE(o.bad_completed);
}

TEST(FailureInjection, CtsForNoWaitingSendIsDropped) {
  ChunkHeader cts = chunk(ChunkKind::kCts, 0, 0, 0);
  cts.cookie = 12345;
  const Outcome o = inject({cts}, 0);
  EXPECT_TRUE(o.good);
  EXPECT_EQ(o.bad_bytes, 0u);
}

// --- early RTS stash ------------------------------------------------------------

/// An RTS chunk of @p tag for message @p msg_seq.
ChunkHeader rts(Tag tag, std::uint32_t msg_seq, std::uint32_t total,
                std::uint64_t cookie) {
  ChunkHeader h;
  h.kind = ChunkKind::kRts;
  h.tag = tag;
  h.msg_seq = msg_seq;
  h.total_len = total;
  h.cookie = cookie;
  return h;
}

/// Node 0 posts @p early in packets of @p per_packet chunks straight into
/// its NIC, then the eager message 0 of the gate (one byte, 9, on tag 1)
/// that every chunk of @p early overtook. Node 1 runs @p receiver.
void inject_early(const std::vector<ChunkHeader>& early,
                  std::size_t per_packet,
                  const std::function<void(Cluster&)>& receiver,
                  Cluster& world) {
  world.spawn(0, [&] {
    world.sched(0).work(sim::microseconds(5));  // node 1 posts first
    net::Nic& nic = world.nic(0, 0);
    auto post = [&](PacketBuilder& b) {
      while (!nic.tx_ready()) world.sched(0).work(sim::microseconds(1));
      nic.post_send(1, 0, b.take().linearize());
    };
    for (std::size_t i = 0; i < early.size(); i += per_packet) {
      PacketBuilder b;
      for (std::size_t j = i; j < std::min(early.size(), i + per_packet); ++j) {
        b.add_chunk(early[j], nullptr);
      }
      post(b);
    }
    ChunkHeader eager;
    eager.kind = ChunkKind::kEager;
    eager.tag = 1;
    eager.msg_seq = 0;
    eager.chunk_len = 1;
    eager.total_len = 1;
    const std::uint8_t v = 9;
    PacketBuilder b;
    b.add_chunk(eager, &v);
    post(b);
  });
  world.spawn(1, [&] { receiver(world); });
  world.run();
}

// Thousands of RTSes that overtook the gate's first eager wait in its
// stash, then drain once it lands. The drain is a loop: a recursive one
// ran off the receiving fiber's 256 KiB stack at a few thousand.
TEST(FailureInjection, ThousandsOfEarlyRtsDrainOnceTheEagerLands) {
  RegistryOn registry;
  Cluster world(ClusterConfig{});
  constexpr std::uint32_t kEarly = 4096;
  std::vector<ChunkHeader> early;
  for (std::uint32_t seq = 1; seq <= kEarly; ++seq) {
    early.push_back(rts(kBadTag, seq, 1 << 20, seq));
  }
  bool good = false;
  inject_early(early, 64, [&good](Cluster& w) {
    std::uint8_t v = 0;
    w.core(1).recv(w.gate(1, 0), 1, &v, 1);
    good = v == 9;
  }, world);
  EXPECT_TRUE(good);
  EXPECT_EQ(rejected("node1"), 0u);
  // Every stashed RTS was drained into an unexpected rendezvous message.
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter_value("nmad", "node1", "unexpected_chunks")
                .value_or(0),
            kEarly);
}

// A second RTS for a msg_seq already in the stash is rejected; the first
// one stays and is the one granted, so its sender still gets its CTS.
TEST(FailureInjection, DuplicateEarlyRtsIsDropped) {
  RegistryOn registry;
  Cluster world(ClusterConfig{});
  std::vector<std::uint8_t> buf(256);
  Request* bad = nullptr;
  inject_early({rts(kBadTag, 1, 100, 111), rts(kBadTag, 1, 200, 222)}, 1,
               [&](Cluster& w) {
                 bad = w.core(1).irecv(w.gate(1, 0), kBadTag, buf.data(),
                                       buf.size());
                 std::uint8_t v = 0;
                 w.core(1).recv(w.gate(1, 0), 1, &v, 1);
               },
               world);
  EXPECT_EQ(rejected("node1"), 1u);
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->total_length(), 100u);  // bound to the first RTS
}

}  // namespace
}  // namespace pm2::nm
