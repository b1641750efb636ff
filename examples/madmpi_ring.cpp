// Mad-MPI collectives on a ring of nodes.
//
// Demonstrates the MPI-flavoured interface (paper Sec. 2: "NEWMADELEINE
// implements ... a MPI interface called Mad-MPI"): ring-neighbour
// exchanges via sendrecv, then the built-in collectives.
#include <cmath>
#include <cstdio>
#include <vector>

#include "madmpi/madmpi.hpp"

using namespace pm2;

int main() {
  constexpr int kNodes = 6;
  nm::ClusterConfig cfg;
  cfg.nodes = kNodes;

  nm::Cluster world(cfg);
  bool ok = true;

  madmpi::launch(world, [&world, &ok](madmpi::Comm comm) {
    const int r = comm.rank();
    const int n = comm.size();
    const int right = (r + 1) % n;
    const int left = (r - 1 + n) % n;

    // 1. Ring shift: pass the rank around the full circle.
    int token = r;
    for (int step = 0; step < n; ++step) {
      int incoming = -1;
      comm.sendrecv(right, 1, &token, sizeof(token), left, 1, &incoming,
                    sizeof(incoming));
      token = incoming;
    }
    // After n hops everyone has their own rank back.
    if (token != r) {
      std::printf("rank %d: ring shift FAILED\n", r);
      ok = false;
    }

    comm.barrier();

    // 2. Collectives: the root broadcasts a vector, everyone contributes
    //    to a sum, and rank 0 gathers the per-rank contributions.
    std::vector<double> weights(4);
    if (r == 0) weights = {0.1, 0.2, 0.3, 0.4};
    comm.bcast(0, weights.data(), weights.size() * sizeof(double));

    double contribution = 0;
    for (double w : weights) contribution += w * (r + 1);
    double total = contribution;
    comm.allreduce_sum(&total, 1);

    std::vector<double> all(static_cast<std::size_t>(n));
    comm.gather(0, &contribution, sizeof(double), r == 0 ? all.data() : nullptr);

    if (r == 0) {
      std::printf("weights broadcast, per-rank contributions gathered:\n");
      for (int i = 0; i < n; ++i) {
        std::printf("  rank %d: %.2f\n", i, all[static_cast<std::size_t>(i)]);
      }
      const double expected = 1.0 * (n * (n + 1) / 2);
      std::printf("allreduce total: %.2f (expected %.2f)\n", total, expected);
      if (std::abs(total - expected) > 1e-9) ok = false;
      std::printf("virtual time: %.3f ms\n", comm.wtime() * 1e3);
    }
  });

  world.run();
  return ok ? 0 : 1;
}
