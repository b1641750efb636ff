// Master/worker task farm: wildcard receives + passive waiting.
//
// A master node hands out work items; worker nodes each run several
// threads that fetch, compute, and return results. Two library features
// carry the pattern:
//   * kAnyTag receives -- the master accepts results from any outstanding
//     item without polling each tag separately;
//   * passive waiting + PIOMan hooks -- worker threads block while their
//     next item is in flight, so the cores run other worker threads
//     instead of spinning (the paper's Sec. 3.3 policy earning its keep).
#include <cstdio>
#include <vector>

#include "nmad/cluster.hpp"

using namespace pm2;

namespace {

constexpr int kWorkers = 3;          // worker nodes 1..kWorkers
constexpr int kThreadsPerWorker = 6; // oversubscribed on 4 cores
constexpr int kItems = 60;
constexpr sim::Time kItemCost = sim::microseconds(80);

struct WorkItem {
  std::uint32_t id;
  std::uint32_t payload;
};
struct ResultMsg {
  std::uint32_t id;
  std::uint64_t value;
};

}  // namespace

int main() {
  nm::ClusterConfig cfg;
  cfg.nodes = 1 + kWorkers;
  cfg.nm.lock = nm::LockMode::kFine;
  cfg.nm.wait = nm::WaitMode::kPassive;  // block, don't spin
  cfg.nm.progress = nm::ProgressMode::kPiomanHooks;
  nm::Cluster world(cfg);
  std::uint64_t checksum = 0;

  // --- master: deal items round-robin-on-demand, collect results ----------
  world.spawn(0, [&world, &checksum] {
    nm::Core& c = world.core(0);
    std::uint32_t next_item = 0;
    int outstanding = 0;

    // Prime every worker thread with one item.
    for (int w = 1; w <= kWorkers; ++w) {
      for (int t = 0; t < kThreadsPerWorker && next_item < kItems; ++t) {
        WorkItem item{next_item, next_item * 7};
        ++next_item;
        c.send(world.gate(0, w), 1, &item, sizeof(item));
        ++outstanding;
      }
    }
    // One outstanding wildcard receive per worker gate; poll them
    // round-robin (receives cannot be cancelled, so the fixed set is the
    // clean pattern), refilling whichever worker just delivered.
    std::vector<ResultMsg> bufs(static_cast<std::size_t>(kWorkers));
    std::vector<nm::Request*> reqs(static_cast<std::size_t>(kWorkers));
    for (int w = 1; w <= kWorkers; ++w) {
      reqs[static_cast<std::size_t>(w - 1)] =
          c.irecv(world.gate(0, w), nm::kAnyTag,
                  &bufs[static_cast<std::size_t>(w - 1)], sizeof(ResultMsg));
    }
    int received = 0;
    auto& ctx = mth::ExecContext::current();
    while (received < kItems) {
      bool any = false;
      for (int w = 1; w <= kWorkers; ++w) {
        const std::size_t i = static_cast<std::size_t>(w - 1);
        if (reqs[i] == nullptr || !c.test(reqs[i])) continue;
        any = true;
        checksum += bufs[i].value;
        ++received;
        --outstanding;
        c.release(reqs[i]);
        reqs[i] = nullptr;
        if (next_item < kItems) {
          WorkItem item{next_item, next_item * 7};
          ++next_item;
          c.send(world.gate(0, w), 1, &item, sizeof(item));
          ++outstanding;
        }
        // Always re-arm; receives left over when the farm drains are
        // simply abandoned (never matched, freed with the core).
        reqs[i] = c.irecv(world.gate(0, w), nm::kAnyTag, &bufs[i],
                          sizeof(ResultMsg));
      }
      if (!any) c.progress(ctx);
    }
    (void)outstanding;
    // Poison pills: one per worker thread.
    for (int w = 1; w <= kWorkers; ++w) {
      for (int t = 0; t < kThreadsPerWorker; ++t) {
        WorkItem stop{0xFFFFFFFF, 0};
        c.send(world.gate(0, w), 1, &stop, sizeof(stop));
      }
    }
    std::printf("master: %d items processed, checksum %llu, finished at %s\n",
                kItems, static_cast<unsigned long long>(checksum),
                sim::format_time(world.engine().now()).c_str());
  }, "master", 0);

  // --- workers: several threads per node share the gate to the master -----
  for (int w = 1; w <= kWorkers; ++w) {
    for (int t = 0; t < kThreadsPerWorker; ++t) {
      world.spawn(w, [&world, w] {
        nm::Core& c = world.core(w);
        auto& sched = world.sched(w);
        for (;;) {
          WorkItem item{};
          c.recv(world.gate(w, 0), 1, &item, sizeof(item));  // passive wait
          if (item.id == 0xFFFFFFFF) break;                  // poison pill
          sched.work(kItemCost);                             // "compute"
          ResultMsg res{item.id,
                        static_cast<std::uint64_t>(item.payload) * 3 + 1};
          c.send(world.gate(w, 0), 100 + static_cast<nm::Tag>(w), &res,
                 sizeof(res));
        }
      }, "worker" + std::to_string(w) + "." + std::to_string(t));
    }
  }

  world.run();

  // Expected checksum: sum over items of (7 i) * 3 + 1.
  std::uint64_t expect = 0;
  for (std::uint32_t i = 0; i < kItems; ++i) expect += 21ull * i + 1;
  std::printf("expected checksum: %llu\n",
              static_cast<unsigned long long>(expect));
  std::printf("%d worker threads on %d quad-core nodes drained %d items; "
              "threads blocked passively\nbetween items (PIOMan hooks "
              "progressed the transfers)\n",
              kWorkers * kThreadsPerWorker, kWorkers, kItems);
  return checksum == expect ? 0 : 1;
}
