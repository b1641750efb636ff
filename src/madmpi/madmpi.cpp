#include "madmpi/madmpi.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace pm2::madmpi {

namespace {
/// User point-to-point tags map below this; collective traffic above.
constexpr nm::Tag kCollBase = nm::Tag{1} << 32;
}  // namespace

nm::Tag Comm::p2p_tag(Tag tag) { return nm::Tag{tag}; }

nm::Tag Comm::coll_tag(Tag op, int round) {
  return kCollBase + (nm::Tag{op} << 16) + static_cast<nm::Tag>(round);
}

double Comm::wtime() const {
  return sim::to_sec(world_->engine().now());
}

void Comm::send(int dst, Tag tag, const void* buf, std::size_t len) {
  assert(dst != rank_ && "self-send not supported");
  core().send(gate(dst), p2p_tag(tag), buf, len);
}

std::size_t Comm::recv(int src, Tag tag, void* buf, std::size_t capacity) {
  assert(src != rank_ && "self-recv not supported");
  return core().recv(gate(src), p2p_tag(tag), buf, capacity);
}

nm::Request* Comm::isend(int dst, Tag tag, const void* buf, std::size_t len) {
  return core().isend(gate(dst), p2p_tag(tag), buf, len);
}

nm::Request* Comm::irecv(int src, Tag tag, void* buf, std::size_t capacity) {
  return core().irecv(gate(src), p2p_tag(tag), buf, capacity);
}

void Comm::wait(nm::Request* req) {
  core().wait(req);
  core().release(req);
}

bool Comm::test(nm::Request* req) {
  if (!core().test(req)) return false;
  core().release(req);
  return true;
}

void Comm::wait_all(std::vector<nm::Request*>& reqs) {
  for (nm::Request* r : reqs) wait(r);
  reqs.clear();
}

std::size_t Comm::sendrecv(int dst, Tag send_tag, const void* send_buf,
                           std::size_t send_len, int src, Tag recv_tag,
                           void* recv_buf, std::size_t recv_capacity) {
  nm::Request* rr = irecv(src, recv_tag, recv_buf, recv_capacity);
  nm::Request* sr = isend(dst, send_tag, send_buf, send_len);
  core().wait(rr);
  core().wait(sr);
  const std::size_t n = rr->received_length();
  core().release(rr);
  core().release(sr);
  return n;
}

void Comm::barrier() {
  // Dissemination barrier: in round k, rank r signals (r + 2^k) mod size
  // and awaits a signal from (r - 2^k) mod size.
  const int n = size();
  if (n == 1) return;
  std::uint8_t token = 1;
  for (int k = 0, dist = 1; dist < n; ++k, dist *= 2) {
    const int to = (rank_ + dist) % n;
    const int from = (rank_ - dist % n + n) % n;
    std::uint8_t in = 0;
    nm::Request* rr = core().irecv(gate(from), coll_tag(1, k), &in, 1);
    nm::Request* sr = core().isend(gate(to), coll_tag(1, k), &token, 1);
    core().wait(rr);
    core().wait(sr);
    core().release(rr);
    core().release(sr);
  }
}

void Comm::bcast(int root, void* buf, std::size_t len) {
  // Binomial tree rooted at @p root, on rotated ranks.
  const int n = size();
  if (n == 1) return;
  const int vrank = (rank_ - root + n) % n;
  // Receive from the parent (clear lowest set bit), unless root.
  if (vrank != 0) {
    const int parent = ((vrank & (vrank - 1)) + root) % n;
    const std::size_t got =
        core().recv(gate(parent), coll_tag(2, vrank), buf, len);
    if (got != len) throw std::runtime_error("bcast: length mismatch");
  }
  // Forward to children: vrank + 2^k for 2^k > vrank's lowest set bit span.
  for (int dist = 1; dist < n; dist *= 2) {
    if (vrank & (dist - 1)) break;
    if (vrank & dist) break;
    const int vchild = vrank + dist;
    if (vchild >= n) break;
    const int child = (vchild + root) % n;
    core().send(gate(child), coll_tag(2, vchild), buf, len);
  }
}

void Comm::reduce_sum(int root, double* inout, std::size_t n_elems) {
  // Binomial tree: children send partial sums up.
  const int n = size();
  if (n == 1) return;
  const int vrank = (rank_ - root + n) % n;
  std::vector<double> tmp(n_elems);
  for (int dist = 1; dist < n; dist *= 2) {
    if (vrank & dist) {
      // Send to parent and stop.
      const int vparent = vrank - dist;
      const int parent = (vparent + root) % n;
      core().send(gate(parent), coll_tag(3, vrank), inout,
                  n_elems * sizeof(double));
      return;
    }
    const int vchild = vrank + dist;
    if (vchild >= n) continue;
    const int child = (vchild + root) % n;
    const std::size_t got = core().recv(gate(child), coll_tag(3, vchild),
                                        tmp.data(), n_elems * sizeof(double));
    if (got != n_elems * sizeof(double)) {
      throw std::runtime_error("reduce: length mismatch");
    }
    for (std::size_t i = 0; i < n_elems; ++i) inout[i] += tmp[i];
  }
}

void Comm::allreduce_sum(double* inout, std::size_t n_elems) {
  // Ring pays 2(p-1) latency steps but moves only 2n/p data per step; the
  // binomial tree pays log2(p) steps moving whole vectors. Crossover set
  // where the per-element ring saving beats the extra hops on the
  // Myri-10G-like fabric.
  constexpr std::size_t kRingThreshold = 4096;  // elements
  if (size() > 2 && n_elems >= kRingThreshold) {
    allreduce_sum_ring(inout, n_elems);
  } else {
    allreduce_sum_binomial(inout, n_elems);
  }
}

void Comm::allreduce_sum_binomial(double* inout, std::size_t n_elems) {
  reduce_sum(0, inout, n_elems);
  bcast(0, inout, n_elems * sizeof(double));
}

void Comm::allreduce_sum_ring(double* inout, std::size_t n_elems) {
  const int p = size();
  if (p == 1) return;
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  // Block b = elements [lo(b), lo(b+1)); blocks differ by at most 1.
  auto lo = [&](int b) {
    const std::size_t base = n_elems / static_cast<std::size_t>(p);
    const std::size_t extra = n_elems % static_cast<std::size_t>(p);
    const auto ub = static_cast<std::size_t>(b);
    return ub * base + std::min<std::size_t>(ub, extra);
  };
  auto blen = [&](int b) { return lo(b + 1) - lo(b); };
  const std::size_t max_block = blen(0);
  std::vector<double> tmp(max_block);

  // Phase 1: reduce-scatter. After step s, rank r holds the partial sum of
  // block (r - s - 1 mod p) covering s + 2 contributions.
  for (int s = 0; s < p - 1; ++s) {
    const int send_b = (rank_ - s + p) % p;
    const int recv_b = (rank_ - s - 1 + p) % p;
    const std::size_t got = sendrecv(
        right, coll_tag(7, s), inout + lo(send_b), blen(send_b) * sizeof(double),
        left, coll_tag(7, s), tmp.data(), tmp.size() * sizeof(double));
    if (got != blen(recv_b) * sizeof(double)) {
      throw std::runtime_error("allreduce_ring: reduce-scatter length");
    }
    double* dst = inout + lo(recv_b);
    for (std::size_t i = 0; i < blen(recv_b); ++i) dst[i] += tmp[i];
  }
  // Phase 2: allgather of the fully-reduced blocks around the ring.
  for (int s = 0; s < p - 1; ++s) {
    const int send_b = (rank_ + 1 - s + p) % p;
    const int recv_b = (rank_ - s + p) % p;
    const std::size_t got = sendrecv(
        right, coll_tag(8, s), inout + lo(send_b), blen(send_b) * sizeof(double),
        left, coll_tag(8, s), inout + lo(recv_b), blen(recv_b) * sizeof(double));
    if (got != blen(recv_b) * sizeof(double)) {
      throw std::runtime_error("allreduce_ring: allgather length");
    }
  }
}

void Comm::gather(int root, const void* in, std::size_t len, void* out) {
  if (rank_ == root) {
    auto* dst = static_cast<std::uint8_t*>(out);
    std::memcpy(dst + static_cast<std::size_t>(rank_) * len, in, len);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      const std::size_t got = core().recv(
          gate(r), coll_tag(4, r), dst + static_cast<std::size_t>(r) * len, len);
      if (got != len) throw std::runtime_error("gather: length mismatch");
    }
  } else {
    core().send(gate(root), coll_tag(4, rank_), in, len);
  }
}

void launch(nm::Cluster& world, const std::function<void(Comm)>& main_fn,
            int bind_core) {
  for (int r = 0; r < world.num_nodes(); ++r) {
    world.spawn(r, [&world, main_fn, r] { main_fn(Comm(world, r)); },
                "rank" + std::to_string(r), bind_core);
  }
}

}  // namespace pm2::madmpi
