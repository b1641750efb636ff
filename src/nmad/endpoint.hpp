// pm2sim -- communication endpoints (scalable endpoints / multi-channel).
//
// An Endpoint is one full instance of the library's shared per-node state:
// the collect lists and tag-matching tables (as per-endpoint Gates), the
// per-rail transfer lists (per-endpoint Drivers over the shared NICs), the
// deferred protocol queue, the rendezvous cookie table, an optimization
// strategy, and a LockSet guarding it all. A Core instantiates
// ClusterConfig::endpoints of them; endpoint 0 of a 1-endpoint core is
// exactly the classic single-instance layout (same lock names, same simsan
// state names, same operation sequence -- byte-identical schedules).
//
// Routing: sends and exact-tag receives live on endpoint `tag % N`; both
// peers hash identically, so a message's whole lifecycle stays inside one
// endpoint pair and -- with per-endpoint locking -- threads driving
// distinct endpoints share no locked data-path state. The endpoint id
// travels in the chunk header (ChunkHeader::ep), so the receiver
// demultiplexes incoming packets, and rendezvous placements resolve,
// against the owning endpoint.
//
// The NICs themselves stay shared across a node's endpoints: the tx
// doorbell is modeled as atomic MMIO (a NIC serializes posts in hardware),
// which is why NIC state is not part of any endpoint's declared shared
// state. See DESIGN.md "Scalable endpoints".
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nmad/driver.hpp"
#include "nmad/gate.hpp"
#include "nmad/locking.hpp"
#include "nmad/strategy.hpp"
#include "nmad/types.hpp"
#include "obs/metrics.hpp"
#include "simsan/simsan.hpp"

namespace pm2::mth {
class Thread;
}

namespace pm2::nm {

class Core;

class Endpoint {
 public:
  /// Endpoint @p id of @p count. @p name is the owning core's name for
  /// endpoint 0 ("nm0") and the suffixed form ("nm0.ep1") otherwise; lock
  /// and simsan names derive from it so endpoint 0 keeps the historical
  /// names byte-for-byte.
  Endpoint(mth::Scheduler& sched, const Config& cfg, int id, int count,
           std::string name, int max_rails, int home_partition);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  LockSet& locks() { return locks_; }

  /// Engine partition this endpoint's node lives in. Progress fibers
  /// spawned for this endpoint inherit it (ThreadAttrs::partition).
  int home_partition() const { return home_partition_; }

  /// Outgoing work queued anywhere in this endpoint (unpriced host peek).
  bool has_submission_work() const {
    if (!deferred_pws_.empty()) return true;
    for (const auto& g : gates_) {
      if (g->has_outgoing()) return true;
    }
    for (const auto& d : drivers_) {
      if (d->has_pending()) return true;
    }
    return false;
  }

  /// Nothing for a progression visit to do: no submission work, no parked
  /// packet and no resubmit hint (unpriced host peek). The Core's
  /// active-endpoint bit may be clear only while this holds.
  bool idle() const {
    return !has_submission_work() && parked_rx_.empty() && !resubmit_hint_;
  }

 private:
  friend class Core;

  int id_;
  std::string name_;
  int home_partition_ = 0;
  LockSet locks_;

  std::vector<std::unique_ptr<Driver>> drivers_;
  std::vector<Driver*> rail_ptrs_;
  std::vector<std::unordered_map<int, Gate*>> src_to_gate_;  // per rail
  /// Per-peer gates, materialized lazily on first use (Core::connect /
  /// Core::gate_to / first packet from an unknown port). A deque, not a
  /// vector: progress fibers yield while iterating by index, and a
  /// concurrent lazy connect must not move existing Gate slots.
  std::deque<std::unique_ptr<Gate>> gates_;
  std::unordered_map<int, Gate*> by_peer_;

  Strategy strategy_;

  /// Protocol pack-wrappers produced while holding this endpoint's
  /// matching lock (CTS replies, granted rendezvous data); moved into the
  /// gates' collect lists by the next submission step.
  std::deque<std::pair<Gate*, PackWrapper>> deferred_pws_;
  san::Shared san_deferred_{"nm.deferred"};
  bool resubmit_hint_ = false;

  std::unordered_map<std::uint64_t, Request*> send_by_cookie_;

  /// Packets (rail, packet) polled off a shared NIC by a context that could
  /// not take this endpoint's matching lock; drained by this endpoint's
  /// next visit (N > 1 only). Guarded by the Core's rx park leaf lock.
  std::deque<std::pair<int, net::Packet>> parked_rx_;

  mth::Thread* poll_thread_ = nullptr;  ///< kPollThread: this ep's fiber

  // Per-endpoint observability, registered only for multi-endpoint cores
  // (keyed {"nmad.ep", node, endpoint, name}); zero-cost no-ops otherwise
  // so single-endpoint metric reports are unchanged.
  obs::Counter m_sends_;
  obs::Counter m_recvs_;
  obs::Counter m_steals_;  ///< progress made by a non-owning context
};

}  // namespace pm2::nm
