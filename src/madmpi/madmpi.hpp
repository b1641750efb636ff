// pm2sim -- Mad-MPI: the MPI-flavoured interface NewMadeleine exposes
// (paper Sec. 2: "NEWMADELEINE implements both a specific API and a MPI
// interface called Mad-MPI").
//
// One simulated node hosts one MPI process; rank == node id. The
// programming model mirrors the MPI subset hybrid applications use:
// point-to-point (blocking + non-blocking), waits, and the classic
// collectives, implemented with textbook algorithms (dissemination
// barrier, binomial-tree bcast/reduce) on top of nm::Core. Thread-safety
// follows the underlying nm::Config -- with LockMode::kFine this behaves
// like MPI_THREAD_MULTIPLE: any simulated thread of the node may call into
// its Comm concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nmad/cluster.hpp"

namespace pm2::madmpi {

using Tag = std::uint32_t;

/// Communicator handle for one rank (MPI_COMM_WORLD equivalent).
///
/// Cheap to copy; all state lives in the Cluster. Collective calls must be
/// entered by every rank (one thread per rank), like their MPI namesakes.
class Comm {
 public:
  Comm(nm::Cluster& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->num_nodes(); }

  /// Virtual time in seconds (MPI_Wtime equivalent).
  double wtime() const;

  // --- point to point -------------------------------------------------------

  void send(int dst, Tag tag, const void* buf, std::size_t len);
  std::size_t recv(int src, Tag tag, void* buf, std::size_t capacity);

  nm::Request* isend(int dst, Tag tag, const void* buf, std::size_t len);
  nm::Request* irecv(int src, Tag tag, void* buf, std::size_t capacity);
  void wait(nm::Request* req);
  bool test(nm::Request* req);
  void wait_all(std::vector<nm::Request*>& reqs);

  /// Combined exchange (MPI_Sendrecv): posts the receive first, so large
  /// exchanges cannot deadlock.
  std::size_t sendrecv(int dst, Tag send_tag, const void* send_buf,
                       std::size_t send_len, int src, Tag recv_tag,
                       void* recv_buf, std::size_t recv_capacity);

  // --- collectives ------------------------------------------------------------

  /// Dissemination barrier: ceil(log2(size)) rounds.
  void barrier();

  /// Binomial-tree broadcast from @p root.
  void bcast(int root, void* buf, std::size_t len);

  /// Binomial-tree sum-reduction of @p n doubles to @p root. @p inout holds
  /// the local contribution on entry and, on the root, the result on exit.
  void reduce_sum(int root, double* inout, std::size_t n);

  /// Sum-allreduce. Picks the algorithm by payload: binomial reduce+bcast
  /// (latency-optimal) for small vectors, ring reduce-scatter + allgather
  /// (bandwidth-optimal) for large ones.
  void allreduce_sum(double* inout, std::size_t n);

  /// Force the binomial-tree algorithm (reduce to 0 + bcast).
  void allreduce_sum_binomial(double* inout, std::size_t n);

  /// Force the ring algorithm (reduce-scatter + allgather).
  void allreduce_sum_ring(double* inout, std::size_t n);

  /// Gather @p len bytes from every rank into @p out (root only; size() *
  /// len bytes, rank order).
  void gather(int root, const void* in, std::size_t len, void* out);

 private:
  nm::Core& core() const { return world_->core(rank_); }
  nm::Gate* gate(int peer) const { return world_->gate(rank_, peer); }
  /// Internal collective tags live above the user tag space.
  static nm::Tag coll_tag(Tag op, int round);
  static nm::Tag p2p_tag(Tag tag);

  nm::Cluster* world_;
  int rank_;
};

/// Launch helper: spawns one thread per rank running @p main_fn(comm) and
/// returns once the world is built (call cluster.run() to execute).
void launch(nm::Cluster& world, const std::function<void(Comm)>& main_fn,
            int bind_core = -1);

}  // namespace pm2::madmpi
