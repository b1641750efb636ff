// The four workloads: input generation, world construction, checked runs.
//
// Every workload is a closed loop (each sender waits on its completions) and
// every message is checked on arrival. Virtual times are read from the
// engine at the benchmark's own call boundaries; nothing inside the library
// is instrumented beyond what obs already records.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "madmpi/madmpi.hpp"
#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "sync/barrier.hpp"

namespace pb {
namespace {

using namespace pm2;

// pingpong: one blocking stream, 256 round trips = 512 messages per world.
constexpr int kPingRounds = 256;
constexpr std::uint32_t kPingMax = 2048;
// fanin_*: 64 sender/receiver fiber pairs, a window of 16 messages each.
constexpr int kFanThreads = 64;
constexpr int kFanWindow = 16;
constexpr std::uint32_t kFanMin = 8;
constexpr std::uint32_t kFanMax = 256;
// Senders start after every receiver has pre-posted its window (posting 16
// irecvs per thread timeshares the node's eight cores), plus a seed jitter.
constexpr Time kFanSettle = sim::microseconds(5) * kFanThreads;
constexpr Time kFanJitter = sim::microseconds(5);
// hybrid_app: 8 ranks x 6 fibers on 4 cores, 32 BSP iterations.
constexpr int kHybNodes = 8;
constexpr int kHybThreads = 6;
constexpr int kHybIters = 32;
constexpr std::uint32_t kHalo = 64 * 1024;  // above rdv_threshold: rendezvous
constexpr std::size_t kReduceLen = 8;
constexpr Time kCompute = sim::microseconds(40);
constexpr Time kComputeJitter = sim::microseconds(4);

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Virtual-time cap: a progress collapse shows up as missing messages at
/// the cap instead of a hang. Each is over 10x the workload's makespan.
Time cap_for(Workload w) {
  return w == Workload::kHybridApp ? sim::milliseconds(500)
                                   : sim::milliseconds(100);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_++); }
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

nm::ClusterConfig config_for(Workload w, int workers) {
  nm::ClusterConfig cfg;
  cfg.nm.lock = nm::LockMode::kFine;
  switch (w) {
    case Workload::kPingpong:
      cfg.nodes = 2;
      cfg.topology = mach::CacheTopology::quad_core();
      cfg.nm.wait = nm::WaitMode::kBusy;
      cfg.nm.progress = nm::ProgressMode::kAppDriven;
      break;
    case Workload::kFaninShared:
    case Workload::kFaninEndpoints:
      cfg.nodes = 2;
      cfg.topology = mach::CacheTopology::dual_quad_core();
      if (w == Workload::kFaninEndpoints) {
        cfg.endpoints = kFanThreads;
        cfg.rx_queues = kFanThreads;
      }
      break;
    case Workload::kHybridApp:
      cfg.nodes = kHybNodes;
      cfg.topology = mach::CacheTopology::quad_core();
      cfg.nm.wait = nm::WaitMode::kFixedSpin;
      cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
      cfg.partitions = kHybNodes;
      cfg.workers = workers;
      break;
  }
  return cfg;
}

/// Records virtual completion data and, in traced worlds, spans. Each node's
/// span list is written only by that node's fibers, which all run on the
/// node's partition worker, so partitioned worlds need no locking here.
class Recorder {
 public:
  Recorder(WorldOutcome& out, sim::Engine& engine, bool traced)
      : out_(out), engine_(engine), traced_(traced) {}

  void post(std::uint32_t ch, std::uint32_t seq) {
    out_.msgs[ch][seq].post = engine_.now();
  }
  void done(std::uint32_t ch, std::uint32_t seq, Verdict v) {
    auto& m = out_.msgs[ch][seq];
    m.done = engine_.now();
    m.verdict = v;
  }

  int begin(int node, SpanName name, int parent = -1, int ch = -1,
            std::int64_t seq = -1) {
    if (!traced_) return -1;
    auto& list = out_.spans[static_cast<std::size_t>(node)];
    Span s;
    s.name = name;
    s.parent = parent;
    s.channel = ch;
    s.seq = seq;
    s.v0 = engine_.now();
    s.h0 = host_ns();
    list.push_back(s);
    return static_cast<int>(list.size()) - 1;
  }
  void end(int node, int idx) {
    if (idx < 0) return;
    Span& s = out_.spans[static_cast<std::size_t>(node)][static_cast<std::size_t>(idx)];
    s.v1 = engine_.now();
    s.h1 = host_ns();
  }

 private:
  WorldOutcome& out_;
  sim::Engine& engine_;
  bool traced_;
};

/// isend + wait of message (ch, seq); its latency clock starts at the call.
void send_msg(Recorder& rec, nm::Core& c, nm::Gate* g, int node, nm::Tag tag,
              std::uint32_t ch, std::uint32_t seq, std::uint32_t len,
              std::uint8_t* buf, int parent) {
  fill_payload(ch, seq, buf, len);
  rec.post(ch, seq);
  int s = rec.begin(node, kSpanIsend, parent, static_cast<int>(ch), seq);
  nm::Request* r = c.isend(g, tag, buf, len);
  rec.end(node, s);
  s = rec.begin(node, kSpanWait, parent, static_cast<int>(ch), seq);
  c.wait(r);
  rec.end(node, s);
  c.release(r);
}

/// Wait for a posted receive of (ch, seq), then check what landed.
void finish_recv(Recorder& rec, nm::Core& c, nm::Request* r, int node,
                 std::uint32_t ch, std::uint32_t seq, std::uint32_t len,
                 const std::uint8_t* buf, int parent) {
  const int s = rec.begin(node, kSpanWait, parent, static_cast<int>(ch), seq);
  c.wait(r);
  rec.end(node, s);
  rec.done(ch, seq, check_payload(ch, seq, len, buf, r->received_length()));
  c.release(r);
}

nm::Request* post_recv(Recorder& rec, nm::Core& c, nm::Gate* g, int node,
                       nm::Tag tag, std::uint32_t ch, std::uint32_t seq,
                       std::uint8_t* buf, std::size_t cap, int parent) {
  const int s = rec.begin(node, kSpanIrecv, parent, static_cast<int>(ch), seq);
  nm::Request* r = c.irecv(g, tag, buf, cap);
  rec.end(node, s);
  return r;
}

void build_pingpong(nm::Cluster& world, const Inputs& in, Recorder& rec) {
  // Channel 0 is node 0 -> node 1 (tag 1), channel 1 the echo (tag 2).
  for (int side = 0; side < 2; ++side) {
    world.spawn(side, [&world, &in, &rec, side] {
      nm::Core& c = world.core(side);
      nm::Gate* g = world.gate(side, 1 - side);
      std::vector<std::uint8_t> out(kPingMax), buf(kPingMax);
      const auto send_ch = static_cast<std::uint32_t>(side);
      const auto recv_ch = static_cast<std::uint32_t>(1 - side);
      for (int k = 0; k < in.iters; ++k) {
        const auto seq = static_cast<std::uint32_t>(k);
        const int round = rec.begin(side, kSpanRound, -1, -1, k);
        auto do_send = [&] {
          send_msg(rec, c, g, side, send_ch + 1, send_ch, seq,
                   in.sizes[send_ch][seq], out.data(), round);
        };
        auto do_recv = [&] {
          nm::Request* r = post_recv(rec, c, g, side, recv_ch + 1, recv_ch,
                                     seq, buf.data(), buf.size(), round);
          finish_recv(rec, c, r, side, recv_ch, seq, in.sizes[recv_ch][seq],
                      buf.data(), round);
        };
        if (side == 0) {
          do_send();
          do_recv();
        } else {
          do_recv();
          do_send();
        }
        rec.end(side, round);
      }
    }, side == 0 ? "ping" : "pong");
  }
}

/// Tag of message @p i of fanin sender @p t. Every message has its own tag,
/// so each (gate, tag) channel carries one message and the rx_queues=1
/// match-order bug (README.md, finding c) cannot fire; tag % 64 == t keeps
/// each sender on its own endpoint in fanin_endpoints. The receiver still
/// has all 1024 receives posted on one gate.
nm::Tag fan_tag(std::uint32_t t, std::uint32_t i) {
  return nm::Tag{t} + nm::Tag{kFanThreads} * i;
}

void build_fanin(nm::Cluster& world, const Inputs& in, Recorder& rec) {
  // Sender fiber t on node 0 streams its window to receiver fiber t on node
  // 1; payloads are encoded as (t, i).
  for (int t = 0; t < kFanThreads; ++t) {
    const auto ch = static_cast<std::uint32_t>(t);
    world.spawn(0, [&world, &in, &rec, t, ch] {
      nm::Core& c = world.core(0);
      nm::Gate* g = world.gate(0, 1);
      world.sched(0).sleep_for(in.delays[ch]);
      std::vector<std::uint8_t> bufs(std::size_t{kFanWindow} * kFanMax);
      nm::Request* reqs[kFanWindow];
      const int round = rec.begin(0, kSpanRound, -1, t, -1);
      for (std::uint32_t i = 0; i < kFanWindow; ++i) {
        std::uint8_t* b = bufs.data() + std::size_t{i} * kFanMax;
        const std::uint32_t len = in.sizes[ch][i];
        fill_payload(ch, i, b, len);
        rec.post(ch, i);
        const int s = rec.begin(0, kSpanIsend, round, t, i);
        reqs[i] = c.isend(g, fan_tag(ch, i), b, len);
        rec.end(0, s);
      }
      for (std::uint32_t i = 0; i < kFanWindow; ++i) {
        const int s = rec.begin(0, kSpanWait, round, t, i);
        c.wait(reqs[i]);
        rec.end(0, s);
        c.release(reqs[i]);
      }
      rec.end(0, round);
    }, "sender");
    world.spawn(1, [&world, &in, &rec, t, ch] {
      nm::Core& c = world.core(1);
      nm::Gate* g = world.gate(1, 0);
      // Sized to the largest message, so a misdelivery is counted, not thrown.
      std::vector<std::uint8_t> bufs(std::size_t{kFanWindow} * kFanMax);
      nm::Request* reqs[kFanWindow];
      const int round = rec.begin(1, kSpanRound, -1, t, -1);
      for (std::uint32_t i = 0; i < kFanWindow; ++i) {
        reqs[i] = post_recv(rec, c, g, 1, fan_tag(ch, i), ch, i,
                            bufs.data() + std::size_t{i} * kFanMax, kFanMax,
                            round);
      }
      for (std::uint32_t i = 0; i < kFanWindow; ++i) {
        finish_recv(rec, c, reqs[i], 1, ch, i, in.sizes[ch][i],
                    bufs.data() + std::size_t{i} * kFanMax, round);
      }
      rec.end(1, round);
    }, "receiver");
  }
}

void build_hybrid(nm::Cluster& world, const Inputs& in, Recorder& rec,
                  std::vector<std::unique_ptr<sync::Barrier>>& barriers,
                  std::vector<char>& reduce_bad) {
  for (int n = 0; n < kHybNodes; ++n) {
    barriers.push_back(
        std::make_unique<sync::Barrier>(world.sched(n), kHybThreads, "bsp"));
  }
  for (int n = 0; n < kHybNodes; ++n) {
    for (int t = 0; t < kHybThreads; ++t) {
      world.spawn(n, [&world, &in, &rec, &barriers, &reduce_bad, n, t] {
        madmpi::Comm comm(world, n);
        auto& sched = world.sched(n);
        // Boundary fiber 0 receives from the left and sends right on tag
        // 10, fiber 1 the mirror on tag 11; channel = 2 * sender + fiber.
        const bool boundary = t < 2;
        const int to = t == 0 ? (n + 1) % kHybNodes
                              : (n + kHybNodes - 1) % kHybNodes;
        const int from = t == 0 ? (n + kHybNodes - 1) % kHybNodes
                                : (n + 1) % kHybNodes;
        const auto out_ch = static_cast<std::uint32_t>(2 * n + t);
        const auto in_ch = static_cast<std::uint32_t>(2 * from + t);
        const madmpi::Tag tag = 10 + static_cast<madmpi::Tag>(t);
        std::vector<std::uint8_t> out(boundary ? kHalo : 0);
        std::vector<std::uint8_t> buf(boundary ? kHalo : 0);
        std::vector<nm::Request*> reqs;
        for (int it = 0; it < in.iters; ++it) {
          const auto seq = static_cast<std::uint32_t>(it);
          const int round = rec.begin(n, kSpanRound, -1, -1, it);
          int s = rec.begin(n, kSpanWork, round);
          sched.work(in.delays[static_cast<std::size_t>(
              (n * kHybThreads + t) * in.iters + it)]);
          rec.end(n, s);
          if (boundary) {
            std::memset(buf.data(), 0xff, 8);  // no stale header can pass
            s = rec.begin(n, kSpanIrecv, round, static_cast<int>(in_ch), it);
            reqs.push_back(comm.irecv(from, tag, buf.data(), buf.size()));
            rec.end(n, s);
            fill_payload(out_ch, seq, out.data(), kHalo);
            rec.post(out_ch, seq);
            s = rec.begin(n, kSpanIsend, round, static_cast<int>(out_ch), it);
            reqs.push_back(comm.isend(to, tag, out.data(), kHalo));
            rec.end(n, s);
            s = rec.begin(n, kSpanWaitAll, round, static_cast<int>(in_ch), it);
            comm.wait_all(reqs);  // releases; the length is checked via bytes
            rec.end(n, s);
            rec.done(in_ch, seq,
                     check_payload(in_ch, seq, kHalo, buf.data(), kHalo));
          }
          if (t == 0) {
            double v[kReduceLen];
            double want[kReduceLen] = {};
            for (std::size_t j = 0; j < kReduceLen; ++j) {
              for (int r = 0; r < kHybNodes; ++r) {
                want[j] += in.contrib[(static_cast<std::size_t>(it) * kHybNodes +
                                       static_cast<std::size_t>(r)) *
                                          kReduceLen + j];
              }
              v[j] = in.contrib[(static_cast<std::size_t>(it) * kHybNodes +
                                 static_cast<std::size_t>(n)) *
                                    kReduceLen + j];
            }
            s = rec.begin(n, kSpanAllreduce, round);
            comm.allreduce_sum(v, kReduceLen);
            rec.end(n, s);
            // Integer-valued contributions: the sum is exact in any order.
            if (!std::equal(v, v + kReduceLen, want)) {
              reduce_bad[static_cast<std::size_t>(n)] = 1;
            }
          }
          s = rec.begin(n, kSpanBarrier, round);
          barriers[static_cast<std::size_t>(n)]->arrive_and_wait();
          rec.end(n, s);
          rec.end(n, round);
        }
      }, "bsp");
    }
  }
}

/// Per-world state the fibers of a world refer to; it must outlive the run.
struct WorldState {
  std::vector<std::unique_ptr<sync::Barrier>> barriers;
  std::vector<char> reduce_bad;
};

/// Spawns the workload's fibers into @p world.
void build(nm::Cluster& world, const Inputs& in, Recorder& rec, WorldState& st) {
  st.reduce_bad.assign(static_cast<std::size_t>(world.num_nodes()), 0);
  switch (in.workload) {
    case Workload::kPingpong: build_pingpong(world, in, rec); break;
    case Workload::kFaninShared:
    case Workload::kFaninEndpoints: build_fanin(world, in, rec); break;
    case Workload::kHybridApp:
      build_hybrid(world, in, rec, st.barriers, st.reduce_bad);
      break;
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kPingpong, Workload::kFaninShared,
                     Workload::kFaninEndpoints, Workload::kHybridApp}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPingpong: return "pingpong";
    case Workload::kFaninShared: return "fanin_shared";
    case Workload::kFaninEndpoints: return "fanin_endpoints";
    case Workload::kHybridApp: return "hybrid_app";
  }
  return "?";
}

const char* span_name(std::uint16_t name) {
  static const char* const kNames[kSpanCount] = {
      "app.round",   "nmad.isend",          "nmad.irecv",   "nmad.wait",
      "madmpi.wait_all", "madmpi.allreduce_sum", "sync.barrier",
      "simthread.work"};
  return name < kSpanCount ? kNames[name] : "?";
}

int worlds_per_seed(Workload w) {
  // Messages per world: pingpong 512, fanin 1024, hybrid_app 512. Far more
  // than 1000 pooled: seed-to-seed spread of the virtual metrics shrinks
  // with the number of independently seeded worlds.
  switch (w) {
    case Workload::kPingpong: return 16;
    case Workload::kFaninShared:
    case Workload::kFaninEndpoints: return 16;
    case Workload::kHybridApp: return 8;
  }
  return 1;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  Rng rng(seed);
  switch (w) {
    case Workload::kPingpong: {
      // Uniform over the paper's 1 B - 2 KiB latency range; the echo
      // carries the same size back.
      in.iters = kPingRounds;
      std::vector<std::uint32_t> sizes(kPingRounds);
      for (auto& s : sizes) s = static_cast<std::uint32_t>(rng.between(1, kPingMax));
      in.sizes = {sizes, sizes};
      break;
    }
    case Workload::kFaninShared:
    case Workload::kFaninEndpoints:
      in.iters = kFanWindow;
      in.sizes.assign(kFanThreads, std::vector<std::uint32_t>(kFanWindow));
      for (auto& ch : in.sizes) {
        for (auto& s : ch) s = static_cast<std::uint32_t>(rng.between(kFanMin, kFanMax));
      }
      for (int t = 0; t < kFanThreads; ++t) {
        in.delays.push_back(kFanSettle + static_cast<Time>(rng.between(
                                             0, static_cast<std::uint64_t>(kFanJitter))));
      }
      break;
    case Workload::kHybridApp:
      in.iters = kHybIters;
      in.sizes.assign(2 * kHybNodes, std::vector<std::uint32_t>(kHybIters, kHalo));
      for (int i = 0; i < kHybNodes * kHybThreads * kHybIters; ++i) {
        in.delays.push_back(kCompute - kComputeJitter +
                            static_cast<Time>(rng.between(
                                0, 2 * static_cast<std::uint64_t>(kComputeJitter))));
      }
      for (std::size_t i = 0; i < std::size_t{kHybIters} * kHybNodes * kReduceLen; ++i) {
        in.contrib.push_back(static_cast<double>(rng.between(0, 999)));
      }
      break;
  }
  return in;
}

std::size_t WorldOutcome::attempted() const {
  std::size_t n = 0;
  for (const auto& ch : msgs) n += ch.size();
  return n;
}

std::size_t WorldOutcome::failed() const {
  if (threw || !collective_ok) return attempted();
  std::size_t n = 0;
  for (const auto& ch : msgs) {
    for (const Msg& m : ch) n += m.verdict != Verdict::kOk;
  }
  return n;
}

std::size_t WorldOutcome::delivered() const {
  std::size_t n = 0;
  for (const auto& ch : msgs) {
    for (const Msg& m : ch) n += m.verdict != Verdict::kMissing;
  }
  return n;
}

Time WorldOutcome::makespan() const {
  Time first = sim::kTimeInfinity, last = 0;
  for (const auto& ch : msgs) {
    for (const Msg& m : ch) {
      if (m.post >= 0) first = std::min(first, m.post);
      last = std::max(last, m.verdict == Verdict::kMissing ? cap : m.done);
    }
  }
  return first == sim::kTimeInfinity ? 0 : last - first;
}

bool WorldOutcome::same_virtual(const WorldOutcome& o) const {
  if (threw != o.threw || collective_ok != o.collective_ok ||
      msgs.size() != o.msgs.size()) {
    return false;
  }
  for (std::size_t c = 0; c < msgs.size(); ++c) {
    if (msgs[c].size() != o.msgs[c].size()) return false;
    for (std::size_t i = 0; i < msgs[c].size(); ++i) {
      const Msg& a = msgs[c][i];
      const Msg& b = o.msgs[c][i];
      if (a.post != b.post || a.done != b.done || a.verdict != b.verdict) {
        return false;
      }
    }
  }
  return true;
}

WorldOutcome run_world(const Inputs& in, bool traced, int workers) {
  WorldOutcome out;
  out.cap = cap_for(in.workload);
  for (const auto& ch : in.sizes) out.msgs.emplace_back(ch.size());
  auto& reg = obs::MetricsRegistry::global();
  try {
    const nm::ClusterConfig cfg = config_for(in.workload, workers);
    if (traced) out.spans.resize(static_cast<std::size_t>(cfg.nodes));
    WorldState st;
    nm::Cluster world(cfg);
    Recorder rec(out, world.engine(), traced);
    build(world, in, rec, st);

    if (traced) {
      world.enable_flow_trace();
      reg.reset_values();
      reg.set_enabled(true);
    }
    const double c0 = process_cpu_s();
    const std::int64_t h0 = host_ns();
    world.engine().run_until(out.cap);
    out.run_s = static_cast<double>(host_ns() - h0) * 1e-9;
    out.cpu_s = process_cpu_s() - c0;

    auto& e = world.engine();
    out.events = e.events_executed();
    out.windows = e.windows_executed();
    out.cross = e.cross_events();
    out.overflows = e.mailbox_overflows();
    out.collective_ok = std::none_of(st.reduce_bad.begin(), st.reduce_bad.end(),
                                     [](char b) { return b; });
    if (traced) {
      reg.set_enabled(false);
      out.counts = layer_counts_from_registry(reg.to_json());
      if (world.trace_log() != nullptr) world.trace_log()->drain_now();
      const auto segs = world.flow_trace()->breakdown();
      for (std::size_t i = 0; i < segs.size() && i < 5; ++i) {
        out.flow_us[i] = segs[i].us.samples();
      }
      for (const auto& node : out.spans) {
        for (const Span& s : node) {
          out.span_vus[s.name].push_back(static_cast<double>(s.v1 - s.v0) / 1e3);
        }
      }
    }
  } catch (const std::exception& ex) {
    reg.set_enabled(false);
    out.threw = true;
    std::fprintf(stderr, "perfbench: %s world threw: %s\n",
                 workload_name(in.workload), ex.what());
  }
  return out;
}

double setup_s(const Inputs& in) {
  // The world never runs, so nothing is recorded. The outcome still makes
  // run_world's allocations: the fanin worlds' build time moves with the
  // heap's layout (README.md, baseline).
  WorldOutcome out;
  for (const auto& ch : in.sizes) out.msgs.emplace_back(ch.size());
  const nm::ClusterConfig cfg = config_for(in.workload, kHybridWorkers);
  WorldState st;
  const std::int64_t t0 = host_ns();
  nm::Cluster world(cfg);
  Recorder rec(out, world.engine(), false);
  build(world, in, rec, st);
  return static_cast<double>(host_ns() - t0) * 1e-9;
}

}  // namespace pb
