// Multirail: the optimization layer splits bulk data across two NICs.
//
// The paper's Fig. 1 core layer applies "dynamic scheduling optimizations
// ... such as packet reordering, coalescing, multirail distribution". Here
// each node owns a Myri-10G rail and an InfiniBand DDR rail; the split
// strategy stripes rendezvous data across both, weighted by bandwidth.
#include <cstdio>
#include <vector>

#include "nmad/cluster.hpp"

using namespace pm2;

namespace {

constexpr std::size_t kMessage = 4 * 1024 * 1024;

/// Transfers kMessage bytes and returns the achieved GB/s; clears @p intact
/// if the receiver's integrity check fails.
double run_transfer(bool multirail, bool& intact) {
  nm::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.rails = {net::NicParams::myri10g()};
  if (multirail) cfg.rails.push_back(net::NicParams::connectx_ib());
  cfg.nm.strategy = multirail ? nm::StrategyKind::kSplit
                              : nm::StrategyKind::kAggreg;

  nm::Cluster world(cfg);
  double gbps = 0;

  world.spawn(0, [&world, &gbps] {
    nm::Core& core = world.core(0);
    nm::Gate* g = world.gate(0, 1);
    std::vector<std::uint8_t> data(kMessage);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31);
    }
    const sim::Time t0 = world.engine().now();
    core.send(g, 1, data.data(), data.size());
    std::uint8_t ack = 0;
    core.recv(g, 2, &ack, 1);  // remote confirms full arrival
    const sim::Time dt = world.engine().now() - t0;
    gbps = static_cast<double>(kMessage) / sim::to_sec(dt) / 1e9;
  });

  world.spawn(1, [&world, &intact] {
    nm::Core& core = world.core(1);
    nm::Gate* g = world.gate(1, 0);
    std::vector<std::uint8_t> buf(kMessage);
    const std::size_t n = core.recv(g, 1, buf.data(), buf.size());
    // Integrity check before acking.
    bool ok = n == kMessage;
    for (std::size_t i = 0; ok && i < buf.size(); i += 4097) {
      ok = buf[i] == static_cast<std::uint8_t>(i * 31);
    }
    std::uint8_t ack = ok ? 1 : 0;
    core.send(g, 2, &ack, 1);
    if (!ok) {
      std::printf("INTEGRITY FAILURE\n");
      intact = false;
    }
  });

  world.run();
  return gbps;
}

}  // namespace

int main() {
  std::printf("transferring %zu MiB (rendezvous, ack-confirmed)\n\n",
              kMessage / (1024 * 1024));
  bool intact = true;
  const double single = run_transfer(false, intact);
  const double dual = run_transfer(true, intact);
  std::printf("%-44s %8.3f GB/s\n", "single rail (Myri-10G):", single);
  std::printf("%-44s %8.3f GB/s\n", "dual rail (Myri-10G + ConnectX IB, split):",
              dual);
  std::printf("\nrail aggregation speedup: %.2fx\n", dual / single);
  return intact ? 0 : 1;
}
