// Hybrid MPI + threads: 1-D heat diffusion with halo exchange.
//
// This is the workload class the paper's introduction motivates: instead of
// one MPI process per core ("pure MPI"), each node runs ONE process with
// several compute threads (saving memory/TLB), and the threads call the
// communication library concurrently -- which requires the library to be
// thread-safe (MPI_THREAD_MULTIPLE, here LockMode::kFine).
//
// Decomposition: the global 1-D domain is split across nodes; within a
// node, worker threads split the local slab. After each iteration the two
// boundary threads exchange halo cells with the neighbour nodes *in
// parallel* (left and right halos from different threads), while inner
// threads only synchronize on the node-local barrier.
#include <cmath>
#include <cstdio>
#include <vector>

#include "madmpi/madmpi.hpp"
#include "sync/barrier.hpp"

using namespace pm2;

namespace {

constexpr int kNodes = 4;
constexpr int kThreadsPerNode = 4;
constexpr int kCellsPerNode = 1 << 12;
constexpr int kIterations = 25;
constexpr double kAlpha = 0.25;

struct NodeState {
  std::vector<double> cells;      // local slab + 2 halo cells
  std::vector<double> next;
  std::unique_ptr<sync::Barrier> barrier;
  double local_sum = 0;
};

}  // namespace

int main() {
  nm::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.nm.lock = nm::LockMode::kFine;  // threads enter the library in parallel

  nm::Cluster world(cfg);
  std::vector<NodeState> state(kNodes);
  double global_heat = 0;

  for (int node = 0; node < kNodes; ++node) {
    NodeState& ns = state[static_cast<std::size_t>(node)];
    ns.cells.assign(kCellsPerNode + 2, 0.0);
    ns.next.assign(kCellsPerNode + 2, 0.0);
    ns.barrier = std::make_unique<sync::Barrier>(world.sched(node),
                                                 kThreadsPerNode, "stencil");
    // Initial condition: a hot spike in the middle of node 1.
    if (node == 1) ns.cells[kCellsPerNode / 2 + 1] = 1000.0;

    for (int t = 0; t < kThreadsPerNode; ++t) {
      world.spawn(node, [&world, &ns, &global_heat, node, t] {
        madmpi::Comm comm(world, node);
        auto& sched = world.sched(node);
        const int chunk = kCellsPerNode / kThreadsPerNode;
        const int lo = 1 + t * chunk;
        const int hi = lo + chunk;  // [lo, hi)

        for (int iter = 0; iter < kIterations; ++iter) {
          // Boundary threads exchange halos with the neighbour nodes.
          // Thread 0 handles the left halo, the last thread the right one:
          // two threads of the same node inside the library concurrently.
          if (t == 0 && node > 0) {
            comm.sendrecv(node - 1, 10, &ns.cells[1], sizeof(double),
                          node - 1, 11, &ns.cells[0], sizeof(double));
          }
          if (t == kThreadsPerNode - 1 && node < kNodes - 1) {
            comm.sendrecv(node + 1, 11, &ns.cells[kCellsPerNode], sizeof(double),
                          node + 1, 10, &ns.cells[kCellsPerNode + 1],
                          sizeof(double));
          }
          ns.barrier->arrive_and_wait();

          // Compute: 3-point stencil over this thread's cells. Cost model:
          // ~2 ns per cell of simulated FP work.
          for (int i = lo; i < hi; ++i) {
            ns.next[static_cast<std::size_t>(i)] =
                ns.cells[static_cast<std::size_t>(i)] +
                kAlpha * (ns.cells[static_cast<std::size_t>(i) - 1] -
                          2 * ns.cells[static_cast<std::size_t>(i)] +
                          ns.cells[static_cast<std::size_t>(i) + 1]);
          }
          sched.work(sim::nanoseconds(2) * chunk);
          ns.barrier->arrive_and_wait();

          if (t == 0) ns.cells.swap(ns.next);
          ns.barrier->arrive_and_wait();
        }

        // Node-local reduction by thread 0, then a global allreduce.
        if (t == 0) {
          double sum = 0;
          for (int i = 1; i <= kCellsPerNode; ++i) {
            sum += ns.cells[static_cast<std::size_t>(i)];
          }
          ns.local_sum = sum;
          double total = sum;
          comm.allreduce_sum(&total, 1);
          if (node == 0) {
            global_heat = total;
            std::printf("after %d iterations: global heat = %.6f "
                        "(conservation check, expect ~1000)\n",
                        kIterations, total);
          }
        }
      }, "worker" + std::to_string(t), t % 4);
    }
  }

  world.run();

  std::printf("done at %s; node heat distribution:",
              sim::format_time(world.engine().now()).c_str());
  for (int node = 0; node < kNodes; ++node) {
    std::printf(" n%d=%.3f", node, state[static_cast<std::size_t>(node)].local_sum);
  }
  std::printf("\nhybrid model: %d nodes x %d threads, fine-grain locking "
              "(MPI_THREAD_MULTIPLE equivalent)\n",
              kNodes, kThreadsPerNode);
  // Diffusion conserves heat: the initial 1000 must all still be there.
  return std::abs(global_heat - 1000.0) < 1e-6 ? 0 : 1;
}
