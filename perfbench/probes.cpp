// Layer probes: host cost of one layer's public functions, timed without a
// workload around them. Each probe repeats kReps times and reports the
// median with its quartile spread.
#include <chrono>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "nmad/cluster.hpp"
#include "nmad/wire_format.hpp"
#include "simcore/engine.hpp"
#include "simnet/nic.hpp"
#include "simthread/fiber.hpp"
#include "simthread/scheduler.hpp"
#include "sync/spinlock.hpp"

namespace pb {
namespace {

using namespace pm2;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

ProbeResult summarize(const char* name, const std::vector<double>& v) {
  const double med = median(v);
  const auto [q1, q3] = quartiles(v);
  return {name, med, med > 0 ? (q3 - q1) / med : 0};
}

/// Runs @p once kReps times; each call returns host ns per operation.
ProbeResult repeat(const char* name, const std::function<double()>& once) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(once());
  return summarize(name, v);
}

double probe_events() {
  constexpr int kEvents = 20000;
  sim::Engine engine;
  const auto t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) engine.schedule_at(i, [] {});
  engine.run();
  return ns_since(t0) / kEvents;
}

double probe_switch() {
  constexpr int kResumes = 50000;
  mth::Fiber* self = nullptr;
  bool stop = false;
  mth::Fiber fiber(
      [&] {
        while (!stop) self->suspend();
      },
      64 * 1024);
  self = &fiber;
  const auto t0 = Clock::now();
  for (int i = 0; i < kResumes; ++i) fiber.resume();
  const double ns = ns_since(t0);
  stop = true;
  fiber.resume();
  return ns / (2.0 * kResumes);  // a resume/suspend pair is two switches
}

/// @p fibers fibers on distinct cores each take and release one SpinLock
/// kCycles times; ns per acquisition.
double probe_spinlock(int fibers) {
  constexpr int kCycles = 10000;
  sim::Engine engine;
  mach::Machine machine(engine, "probe", mach::CacheTopology::quad_core(),
                        mach::CostBook::xeon_quad());
  mth::Scheduler sched(machine);
  sync::SpinLock lock(sched, "probe");
  for (int f = 0; f < fibers; ++f) {
    mth::ThreadAttrs attrs;
    attrs.bind_core = f;
    sched.spawn([&lock] {
      for (int i = 0; i < kCycles; ++i) {
        lock.lock();
        lock.unlock();
      }
    }, attrs);
  }
  const auto t0 = Clock::now();
  engine.run();
  return ns_since(t0) / (static_cast<double>(kCycles) * fibers);
}

double probe_nic() {
  constexpr int kPackets = 4096;
  sim::Engine engine;
  const auto topo = mach::CacheTopology::quad_core();
  const auto costs = mach::CostBook::xeon_quad();
  mach::Machine a(engine, "a", topo, costs), b(engine, "b", topo, costs);
  net::Fabric fabric(engine, "probe");
  net::Nic nic_a(a, fabric, net::NicParams::myri10g());
  net::Nic nic_b(b, fabric, net::NicParams::myri10g());
  int sent = 0, got = 0;
  const auto t0 = Clock::now();
  while (got < kPackets) {
    while (sent < kPackets && nic_a.tx_ready()) {
      nic_a.post_send(nic_b.port(), 0, std::vector<std::uint8_t>(64, 0x5a));
      ++sent;
    }
    engine.run();
    while (nic_b.poll()) ++got;
  }
  return ns_since(t0) / kPackets;
}

double probe_wire_chunk() {
  constexpr int kChunks = 100000;
  constexpr int kPerPacket = 8;
  std::vector<std::uint8_t> data(64, 0x33);
  nm::PacketBuilder builder;
  std::size_t decoded = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kChunks; i += kPerPacket) {
    for (int c = 0; c < kPerPacket; ++c) {
      nm::ChunkHeader h;
      h.tag = static_cast<nm::Tag>(c);
      h.msg_seq = static_cast<std::uint32_t>(i + c);
      h.chunk_len = static_cast<std::uint32_t>(data.size());
      h.total_len = h.chunk_len;
      builder.add_chunk(h, data.data());
    }
    const net::Payload payload = builder.take();
    nm::PacketReader reader(payload);
    const std::uint8_t* bytes = nullptr;
    while (reader.remaining() > 0 && reader.next(&bytes)) ++decoded;
  }
  const double ns = ns_since(t0);
  return decoded == kChunks ? ns / kChunks : -1.0;
}

/// Host ns per arrival matched when @p k receives are posted on the gate:
/// the receiver keeps k - 1 never-matching receives posted ahead of a burst
/// of receives, and releases the sender with a token only after posting
/// them, so every arrival of the burst meets the whole posted list. Bursts
/// amortise the per-round token over many matches.
double probe_match(int k) {
  constexpr int kRounds = 64;
  constexpr int kBurst = 32;
  constexpr nm::Tag kData = 1, kGo = 2, kDecoy = 1000;
  nm::ClusterConfig cfg;
  nm::Cluster world(cfg);
  double ns = 0;
  world.spawn(0, [&world, k] {
    nm::Core& c = world.core(0);
    nm::Gate* g = world.gate(0, 1);
    std::uint64_t v = 0;
    nm::Request* reqs[kBurst];
    for (int i = 0; i < kRounds; ++i) {
      c.recv(g, kGo, &v, sizeof(v));
      for (auto& r : reqs) r = c.isend(g, kData, &v, sizeof(v));
      for (auto* r : reqs) {
        c.wait(r);
        c.release(r);
      }
    }
    for (int j = 0; j + 1 < k; ++j) c.send(g, kDecoy + j, &v, sizeof(v));
  });
  world.spawn(1, [&world, &ns, k] {
    nm::Core& c = world.core(1);
    nm::Gate* g = world.gate(1, 0);
    std::vector<std::uint64_t> decoy_bufs(static_cast<std::size_t>(k));
    std::vector<nm::Request*> decoys;
    for (int j = 0; j + 1 < k; ++j) {
      decoys.push_back(c.irecv(g, kDecoy + j, &decoy_bufs[j], sizeof(std::uint64_t)));
    }
    std::uint64_t v = 0, bufs[kBurst] = {};
    nm::Request* reqs[kBurst];
    const auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
      for (int b = 0; b < kBurst; ++b) {
        reqs[b] = c.irecv(g, kData, &bufs[b], sizeof(bufs[b]));
      }
      c.send(g, kGo, &v, sizeof(v));
      for (auto* r : reqs) {
        c.wait(r);
        c.release(r);
      }
    }
    ns = ns_since(t0) / (kRounds * kBurst);
    for (nm::Request* r : decoys) {
      c.wait(r);
      c.release(r);
    }
  });
  world.run();
  return ns;
}

/// The matching probes. Each repetition measures k = 1, 64, 1024 and
/// kScanDepth back to back. Per arrival, the send, NIC, progress and wait
/// path costs more than a 1024-deep scan, so the scan is also reported as
/// its marginal cost per posted receive, (t_deep - t_1) / (kScanDepth - 1),
/// from two points of one repetition at a depth where the scan dominates.
std::vector<ProbeResult> match_probes() {
  constexpr int kScanDepth = 16384;
  std::vector<double> k1, k64, k1024, scan;
  for (int r = 0; r < kReps; ++r) {
    k1.push_back(probe_match(1));
    k64.push_back(probe_match(64));
    k1024.push_back(probe_match(1024));
    scan.push_back((probe_match(kScanDepth) - k1.back()) / (kScanDepth - 1));
  }
  return {summarize("nmad.probe_ns_match_k1", k1),
          summarize("nmad.probe_ns_match_k64", k64),
          summarize("nmad.probe_ns_match_k1024", k1024),
          summarize("nmad.probe_ns_match_scan", scan)};
}

}  // namespace

std::vector<ProbeResult> run_probes() {
  std::vector<ProbeResult> probes = {
      repeat("simcore.probe_ns_per_event", probe_events),
      repeat("simthread.probe_ns_per_switch", probe_switch),
      repeat("sync.probe_ns_uncontended", [] { return probe_spinlock(1); }),
      repeat("sync.probe_ns_contended", [] { return probe_spinlock(2); }),
      repeat("simnet.probe_ns_per_packet", probe_nic),
      repeat("nmad.probe_ns_wire_chunk", probe_wire_chunk),
  };
  for (ProbeResult& p : match_probes()) probes.push_back(std::move(p));
  return probes;
}

}  // namespace pb
