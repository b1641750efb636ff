// Host-side microbenchmarks (google-benchmark): how fast the simulator
// itself runs. These measure wall-clock throughput of the substrate, not
// virtual-time results -- useful for keeping the simulator usable as the
// library grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "nmad/cluster.hpp"
#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "simmachine/machine.hpp"
#include "simthread/exec_context.hpp"
#include "simthread/fiber.hpp"
#include "simthread/scheduler.hpp"

using namespace pm2;

namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(i, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_FiberSwitch(benchmark::State& state) {
  mth::Fiber* self = nullptr;
  bool stop = false;
  mth::Fiber fiber(
      [&] {
        while (!stop) self->suspend();
      },
      64 * 1024);
  self = &fiber;
  for (auto _ : state) {
    fiber.resume();
  }
  stop = true;
  fiber.resume();
  state.SetItemsProcessed(state.iterations() * 2);  // two switches per resume
}
BENCHMARK(BM_FiberSwitch);

void BM_ChargeRoundTrip(benchmark::State& state) {
  // Host cost of a virtual-time charge that another event may interleave
  // with, such as one poll of a busy-wait loop: the scheduler schedules
  // its resume, and the next charge resume runs by a fiber switch.
  // range(0) fibers on two dual quad-core nodes, one per core, each charge
  // 19-22 ns in a loop, so most charges end on another fiber's resume and
  // some on a tie. Only run() is timed; ns_per_charge is its host time per
  // charge, the engine and fiber-switch layers' probe for this path.
  const int fibers = static_cast<int>(state.range(0));
  constexpr int kCharges = 2000;
  double run_s = 0;
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<std::unique_ptr<mach::Machine>> machines;
    std::vector<std::unique_ptr<mth::Scheduler>> scheds;
    for (int n = 0; n < 2; ++n) {
      machines.push_back(std::make_unique<mach::Machine>(
          engine, "node" + std::to_string(n),
          mach::CacheTopology::dual_quad_core(),
          mach::CostBook::xeon_dual_quad()));
      scheds.push_back(std::make_unique<mth::Scheduler>(*machines.back()));
    }
    for (int f = 0; f < fibers; ++f) {
      mth::Scheduler& s = *scheds[static_cast<std::size_t>(f % 2)];
      mth::ThreadAttrs attrs;
      attrs.bind_core = f / 2;
      const sim::Time dt = 19 + f % 4;
      s.spawn([&s, dt] {
        for (int i = 0; i < kCharges; ++i) s.charge_current(dt);
      }, attrs);
    }
    const auto start = std::chrono::steady_clock::now();
    engine.run();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    state.SetIterationTime(elapsed);
    run_s += elapsed;
    benchmark::DoNotOptimize(engine.events_executed());
  }
  const double charges =
      static_cast<double>(state.iterations()) * fibers * kCharges;
  state.SetItemsProcessed(static_cast<std::int64_t>(charges));
  state.counters["ns_per_charge"] = run_s * 1e9 / charges;
}
BENCHMARK(BM_ChargeRoundTrip)
    ->Arg(2)
    ->Arg(16)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_BusyWaitSteps(benchmark::State& state) {
  // Host cost of an empty iteration of a busy wait, the path Core::wait
  // hands to the scheduler as steps (Scheduler::spin): a flag test, a
  // progress pass that finds nothing, one empty NIC poll. Two quad-core
  // nodes; on each, a waiter on core 0 busy-waits for kRounds messages
  // that a fiber on the other node's core 1 sends kGap apart, so both
  // waiters spin at once and their charges interleave. Only run() is
  // timed; ns_per_empty_iteration is its host time per empty NIC poll of
  // both nodes, this path's probe as BM_ChargeRoundTrip is for charges.
  constexpr int kRounds = 4;
  constexpr sim::Time kGap = sim::microseconds(50);
  double run_s = 0;
  double empty = 0;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    cfg.nm.lock = nm::LockMode::kFine;
    cfg.nm.wait = nm::WaitMode::kBusy;
    cfg.nm.progress = nm::ProgressMode::kAppDriven;
    nm::Cluster world(cfg);
    for (int node = 0; node < 2; ++node) {
      world.spawn(node, [&world, node] {
        std::vector<std::uint8_t> b(64);
        for (int r = 0; r < kRounds; ++r) {
          world.core(node).recv(world.gate(node, 1 - node), 1, b.data(),
                                b.size());
        }
      }, "waiter", 0);
      world.spawn(node, [&world, node] {
        std::vector<std::uint8_t> m(64);
        for (int r = 0; r < kRounds; ++r) {
          mth::ExecContext::current().charge(kGap);
          world.core(node).send(world.gate(node, 1 - node), 1, m.data(),
                                m.size());
        }
      }, "sender", 1);
    }
    const auto start = std::chrono::steady_clock::now();
    world.run();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    state.SetIterationTime(elapsed);
    run_s += elapsed;
    empty += static_cast<double>(world.nic(0, 0).polls_empty() +
                                 world.nic(1, 0).polls_empty());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(empty));
  state.counters["ns_per_empty_iteration"] = run_s * 1e9 / empty;
}
BENCHMARK(BM_BusyWaitSteps)->UseManualTime()->Unit(benchmark::kMicrosecond);

void BM_WorldConstruction(benchmark::State& state) {
  // Host cost of building a world, the per-layer probe of perfbench's
  // setup_s: range(0) 0 is the pingpong shape (two quad-core nodes, one
  // fiber each), 1 the fanin_endpoints shape (two dual quad-core nodes, 64
  // endpoints and 64 rx queues each, 64 fibers each). Only the Cluster's
  // construction and the spawns are timed; the world never runs, and its
  // teardown is not timed. After the first iteration every instrument is
  // registered and every stack pooled, as in any sequence of worlds.
  const bool fanin = state.range(0) == 1;
  nm::ClusterConfig cfg;
  cfg.nm.lock = nm::LockMode::kFine;
  if (fanin) {
    cfg.topology = mach::CacheTopology::dual_quad_core();
    cfg.endpoints = 64;
    cfg.rx_queues = 64;
  } else {
    cfg.nm.wait = nm::WaitMode::kBusy;
    cfg.nm.progress = nm::ProgressMode::kAppDriven;
  }
  const int fibers = fanin ? 64 : 1;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto world = std::make_unique<nm::Cluster>(cfg);
    for (int t = 0; t < fibers; ++t) {
      for (int node = 0; node < 2; ++node) {
        world->spawn(node, [w = world.get(), node] { w->core(node); });
      }
    }
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    benchmark::DoNotOptimize(world.get());
  }
  state.SetLabel(fanin ? "fanin_endpoints" : "pingpong");
}
BENCHMARK(BM_WorldConstruction)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CancelledEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(engine.schedule_at(i, [] {}));
    }
    for (auto& h : handles) engine.cancel(h);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CancelledEvents);

void BM_ScheduleCancelChurn(benchmark::State& state) {
  // Steady-state churn: a fixed-size window of pending events where each
  // fired event schedules a replacement and cancels a random victim.
  // Exercises slot reuse through the free list and lazy-cancel compaction;
  // after warm-up the loop should be allocation-free.
  const int kWindow = 512;
  sim::Engine engine;
  std::vector<sim::EventHandle> window;
  std::uint32_t rng = 0x9e3779b9u;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 17;
    rng ^= rng << 5;
    return rng;
  };
  sim::Time t = 0;
  for (int i = 0; i < kWindow; ++i) {
    window.push_back(engine.schedule_at(++t, [] {}));
  }
  for (auto _ : state) {
    engine.cancel(window[next() % kWindow]);
    for (int i = 0; i < kWindow; ++i) {
      auto& h = window[i];
      if (!h.pending()) h = engine.schedule_at(++t, [] {});
    }
    engine.run_until(t - kWindow / 2);
    for (auto& h : window) {
      if (!h.pending()) h = engine.schedule_at(++t, [] {});
    }
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_ScheduleCancelChurn);

void BM_ScheduleBurstOutOfOrder(benchmark::State& state) {
  // Adversarial schedule order (decreasing times) so nothing rides the
  // monotone lane: measures the pure heap path.
  for (auto _ : state) {
    sim::Engine engine;
    const int n = static_cast<int>(state.range(0));
    for (int i = n; i-- > 0;) {
      engine.schedule_at(i, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleBurstOutOfOrder)->Arg(1000)->Arg(100000);

void BM_FiberCreateDestroy(benchmark::State& state) {
  // Fiber lifecycle cost; after the first iteration the stack comes from
  // mth::StackPool rather than a fresh mmap/new.
  for (auto _ : state) {
    mth::Fiber fiber([] {}, 64 * 1024);
    fiber.resume();
    benchmark::DoNotOptimize(fiber.finished());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberCreateDestroy);

void BM_PingpongEndToEnd(benchmark::State& state) {
  // Whole-stack host cost: one 64 B pingpong iteration (two nodes, fine
  // locking, busy waiting).
  const std::size_t kIters = 64;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.spawn(0, [&world] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      std::vector<std::uint8_t> m(64), b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.send(g, 1, m.data(), m.size());
        c.recv(g, 2, b.data(), b.size());
      }
    });
    world.spawn(1, [&world] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::uint8_t> b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.recv(g, 1, b.data(), b.size());
        c.send(g, 2, b.data(), b.size());
      }
    });
    world.run();
  }
  state.SetItemsProcessed(state.iterations() * kIters);
}
BENCHMARK(BM_PingpongEndToEnd)->Unit(benchmark::kMillisecond);

void BM_PingpongEndToEndMetrics(benchmark::State& state) {
  // Same workload as BM_PingpongEndToEnd with the metrics registry enabled:
  // the spread between the two is the hot-path cost of instrumentation
  // (ctest `metrics_overhead` asserts it stays under 3%).
  const std::size_t kIters = 64;
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(true);
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.spawn(0, [&world] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      std::vector<std::uint8_t> m(64), b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.send(g, 1, m.data(), m.size());
        c.recv(g, 2, b.data(), b.size());
      }
    });
    world.spawn(1, [&world] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::uint8_t> b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.recv(g, 1, b.data(), b.size());
        c.send(g, 2, b.data(), b.size());
      }
    });
    world.run();
  }
  reg.set_enabled(false);
  state.SetItemsProcessed(state.iterations() * kIters);
}
BENCHMARK(BM_PingpongEndToEndMetrics)->Unit(benchmark::kMillisecond);

void BM_PingpongEndToEndSimsan(benchmark::State& state) {
  // Same workload with the concurrency analyzer on: the spread against
  // BM_PingpongEndToEnd is the cost of the lockset/vector-clock analysis
  // (ctest `simsan_overhead` asserts it stays under 10%).
  const std::size_t kIters = 64;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.enable_simsan();
    world.spawn(0, [&world] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      std::vector<std::uint8_t> m(64), b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.send(g, 1, m.data(), m.size());
        c.recv(g, 2, b.data(), b.size());
      }
    });
    world.spawn(1, [&world] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::uint8_t> b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.recv(g, 1, b.data(), b.size());
        c.send(g, 2, b.data(), b.size());
      }
    });
    world.run();
  }
  state.SetItemsProcessed(state.iterations() * kIters);
}
BENCHMARK(BM_PingpongEndToEndSimsan)->Unit(benchmark::kMillisecond);

void BM_PingpongEndToEndTraced(benchmark::State& state) {
  // Same workload with the full observability surface on -- Chrome-trace
  // timeline (scheduler spans, NIC tx/rx) plus flow-lifecycle stamps --
  // through the per-partition trace record vectors; ctest `trace_overhead`
  // asserts it stays within 3% of BM_PingpongEndToEnd.
  const std::size_t kIters = 64;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.enable_timeline();
    world.enable_flow_trace();
    world.spawn(0, [&world] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      std::vector<std::uint8_t> m(64), b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.send(g, 1, m.data(), m.size());
        c.recv(g, 2, b.data(), b.size());
      }
    });
    world.spawn(1, [&world] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::uint8_t> b(64);
      for (std::size_t i = 0; i < kIters; ++i) {
        c.recv(g, 1, b.data(), b.size());
        c.send(g, 2, b.data(), b.size());
      }
    });
    world.run();
  }
  state.SetItemsProcessed(state.iterations() * kIters);
}
BENCHMARK(BM_PingpongEndToEndTraced)->Unit(benchmark::kMillisecond);

void BM_ParallelEngine(benchmark::State& state) {
  // Partitioned-engine wall-clock scaling: an 8-node world (4 independent
  // pingpong pairs), one partition per node, run by range(0) host workers.
  // Only world.run() is timed; building and tearing down the world costs
  // the same at every worker count. items/s = simulated events per second.
  //   parallelism        = total events / busiest partition's events -- the
  //                        speedup an unlimited-core host could reach;
  //   barrier_wait_share = host time the workers spent waiting at window
  //                        barriers / (workers x run time).
  // A window of this world holds 16 events, so the barrier, not the
  // partitions, bounds what it can show; perfbench's hybrid_app is the
  // real-application gauge.
  const int workers = static_cast<int>(state.range(0));
  const int kNodes = 8;
  const std::size_t kIters = 32;
  std::uint64_t total = 0, part_max = 0, wait_ns = 0;
  double run_s = 0;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.partitions = kNodes;
    cfg.workers = workers;
    nm::Cluster world(cfg);
    for (int pair = 0; pair < kNodes / 2; ++pair) {
      const int a = 2 * pair, b = 2 * pair + 1;
      world.spawn(a, [&world, a, b] {
        auto& c = world.core(a);
        auto* g = world.gate(a, b);
        std::vector<std::uint8_t> m(256), buf(256);
        for (std::size_t i = 0; i < kIters; ++i) {
          c.send(g, 1, m.data(), m.size());
          c.recv(g, 2, buf.data(), buf.size());
        }
      });
      world.spawn(b, [&world, a, b] {
        auto& c = world.core(b);
        auto* g = world.gate(b, a);
        std::vector<std::uint8_t> buf(256);
        for (std::size_t i = 0; i < kIters; ++i) {
          c.recv(g, 1, buf.data(), buf.size());
          c.send(g, 2, buf.data(), buf.size());
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    world.run();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    state.SetIterationTime(elapsed);
    run_s += elapsed;
    auto& e = world.engine();
    wait_ns += e.barrier_wait_ns();
    total = e.events_executed();
    part_max = 0;
    for (int p = 0; p < e.num_partitions(); ++p) {
      part_max = std::max(part_max, e.partition_events_executed(p));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(total));
  state.counters["parallelism"] =
      static_cast<double>(total) / static_cast<double>(part_max);
  state.counters["barrier_wait_share"] =
      static_cast<double>(wait_ns) / (1e9 * run_s * std::min(workers, kNodes));
}
BENCHMARK(BM_ParallelEngine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_LargeMessageBandwidth(benchmark::State& state) {
  // Host cost of the bulk data path: stream rendezvous-size messages with a
  // window of outstanding sends. items/s = messages/s of host (wall-clock)
  // throughput; bytes/s tracks how fast the simulator moves payload bytes.
  const std::size_t msg = static_cast<std::size_t>(state.range(0));
  const int kCount = 16;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    nm::Cluster world(cfg);
    world.spawn(0, [&world, msg] {
      auto& c = world.core(0);
      auto* g = world.gate(0, 1);
      std::vector<std::uint8_t> data(msg, 0x5a);
      std::deque<nm::Request*> window;
      for (int i = 0; i < kCount; ++i) {
        window.push_back(c.isend(g, 1, data.data(), data.size()));
        if (window.size() >= 4) {
          c.wait(window.front());
          c.release(window.front());
          window.pop_front();
        }
      }
      while (!window.empty()) {
        c.wait(window.front());
        c.release(window.front());
        window.pop_front();
      }
    });
    world.spawn(1, [&world, msg] {
      auto& c = world.core(1);
      auto* g = world.gate(1, 0);
      std::vector<std::uint8_t> buf(msg);
      for (int i = 0; i < kCount; ++i) {
        c.recv(g, 1, buf.data(), buf.size());
      }
    });
    world.run();
  }
  state.SetItemsProcessed(state.iterations() * kCount);
  state.SetBytesProcessed(state.iterations() * kCount *
                          static_cast<std::int64_t>(msg));
}
BENCHMARK(BM_LargeMessageBandwidth)
    ->Arg(64 * 1024)
    ->Arg(1024 * 1024)
    ->Unit(benchmark::kMillisecond);

void BM_ConcurrentSenders(benchmark::State& state) {
  // Fig. 5-style concurrent-senders scaling on the Sec. 4.1 dual quad-core
  // testbed: range(0) sender threads on node 0 each stream 16 x 64 B
  // messages on their own tag to a matching receiver thread on node 1.
  // Receivers pre-post every irecv (the overlap pattern real MPI codes
  // use), then senders start at a fixed virtual settle time and push a
  // window of isends -- so the measured phase is receive-side progression,
  // the thing the locking modes and NIC rails actually differ on, not the
  // cold-start cost of posting requests. range(1) picks the regime:
  //   0 = kCoarse (one big library lock),
  //   1 = kFine   (per-structure locks, still one shared instance),
  //   2 = kFine + one endpoint per thread (tag t hashes to endpoint t, so
  //       no two threads share collect/matching/transfer state),
  //   3 = mode 2 + one RX completion queue per endpoint (multi-queue NIC
  //       rails): each receiver drains its own ring, vs mode 2's single
  //       completion queue where one drainer at a time pops and matches
  //       every packet while the other 15-63 pumping contexts skip.
  // Wall-clock items/s measures host cost as usual; the interesting result
  // is the *virtual* makespan counter (last fiber done minus the settle
  // offset, i.e. the traffic-drain phase): lock contention is simulated
  // spin time, so makespan_us orders the regimes the way Fig. 5 orders
  // locking strategies, independent of host noise. The hard ordering gates
  // (endpoints beat kFine at 8 threads, multi-queue beats single-queue at
  // 16) are the `concurrent_senders_smoke` ctest.
  //
  // The virtual clock is capped: under coarse locking at some thread
  // counts the deterministic schedule can lock into a starvation limit
  // cycle among the spin-waiting senders and the run never completes --
  // real systems escape such cycles through timing noise the simulator
  // deliberately lacks. A capped run with messages missing IS the data
  // point (progress collapse); vmsgs_per_s is computed from messages
  // actually received -- receive waits that returned, not irecvs posted.
  const int threads = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  const int kMsgs = 16;
  const sim::Time kCap = sim::milliseconds(10);
  // Senders hold off until every receiver has posted its window; scaled
  // with the thread count because posting 16 irecvs per thread timeshares
  // the node's eight cores. Subtracted back out of the makespan.
  const sim::Time settle = sim::microseconds(threads * 5);
  sim::Time makespan = 0;
  double received = 0;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    cfg.topology = mach::CacheTopology::dual_quad_core();
    cfg.nm.lock = mode == 0 ? nm::LockMode::kCoarse : nm::LockMode::kFine;
    if (mode >= 2) cfg.endpoints = std::min(threads, 255);
    if (mode == 3) cfg.rx_queues = cfg.endpoints;
    nm::Cluster world(cfg);
    // Makespan = virtual time the last thread exits, recorded by the
    // threads themselves: run_until() advances the clock to its deadline
    // even after the world drains, so engine().now() afterwards is kCap.
    sim::Time finished = 0;
    int completed = 0;
    for (int t = 0; t < threads; ++t) {
      const nm::Tag tag = static_cast<nm::Tag>(t);
      world.spawn(0, [&world, &finished, tag, t, settle] {
        auto& c = world.core(0);
        auto* g = world.gate(0, 1);
        world.sched(0).sleep_for(settle);
        std::vector<std::uint8_t> m(64, static_cast<std::uint8_t>(t));
        std::deque<nm::Request*> win;
        for (int i = 0; i < kMsgs; ++i) {
          win.push_back(c.isend(g, tag, m.data(), m.size()));
        }
        while (!win.empty()) {
          c.wait(win.front());
          c.release(win.front());
          win.pop_front();
        }
        finished = std::max(finished, world.engine().now());
      });
      world.spawn(1, [&world, &finished, &completed, tag] {
        auto& c = world.core(1);
        auto* g = world.gate(1, 0);
        std::vector<std::vector<std::uint8_t>> bufs(
            kMsgs, std::vector<std::uint8_t>(64));
        std::vector<nm::Request*> reqs;
        reqs.reserve(kMsgs);
        for (int i = 0; i < kMsgs; ++i) {
          reqs.push_back(c.irecv(g, tag, bufs[i].data(), bufs[i].size()));
        }
        for (auto* r : reqs) {
          c.wait(r);
          c.release(r);
          ++completed;
        }
        finished = std::max(finished, world.engine().now());
      });
    }
    world.engine().run_until(kCap);
    const bool done = world.sched(0).live_threads() == 0 &&
                      world.sched(1).live_threads() == 0;
    makespan = (done ? finished : kCap) - settle;
    received = completed;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(threads) * kMsgs);
  state.counters["makespan_us"] = static_cast<double>(makespan) / 1e3;
  state.counters["received"] = received;
  // Simulated messages per simulated second -- the scaling figure's y-axis.
  state.counters["vmsgs_per_s"] =
      received / (static_cast<double>(makespan) * 1e-9);
}
BENCHMARK(BM_ConcurrentSenders)
    ->ArgsProduct({{1, 8, 16, 64}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_WideWorld(benchmark::State& state) {
  // Sparse-fabric scaling: a range(0)-node world where only 8 scattered
  // pairs ever talk. Construction used to wire a full mesh -- nodes^2
  // gates before a single message moved; now gates, the only per-pair
  // state, materialize on first use, so building and tearing down a wide,
  // mostly-idle world is O(nodes) + O(active pairs). Wall time here is
  // dominated by exactly that construct/run/teardown cycle.
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kPairs = 8;
  double gates = 0;
  sim::Time makespan = 0;
  for (auto _ : state) {
    nm::ClusterConfig cfg;
    cfg.nodes = nodes;
    nm::Cluster world(cfg);
    for (int i = 0; i < kPairs; ++i) {
      const int a = i, b = nodes / 2 + i;
      world.spawn(a, [&world, a, b] {
        auto& c = world.core(a);
        std::uint32_t v = static_cast<std::uint32_t>(a), r = 0;
        c.send(world.gate(a, b), 1, &v, sizeof(v));
        c.recv(world.gate(a, b), 2, &r, sizeof(r));
      });
      world.spawn(b, [&world, a, b] {
        auto& c = world.core(b);
        std::uint32_t v = 0;
        c.recv(world.gate(b, a), 1, &v, sizeof(v));
        c.send(world.gate(b, a), 2, &v, sizeof(v));
      });
    }
    world.run();
    makespan = world.engine().now();
    gates = 0;
    for (int n = 0; n < nodes; ++n) {
      gates += static_cast<double>(world.core(n).gate_count());
    }
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
  state.counters["gates"] = gates;  // 2 * kPairs, not nodes^2
  state.counters["makespan_us"] = static_cast<double>(makespan) / 1e3;
}
BENCHMARK(BM_WideWorld)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
