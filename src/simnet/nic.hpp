// pm2sim -- NIC and fabric: a reliable, in-order, polled packet transport.
//
// The interface deliberately mirrors MX's shape as the paper's drivers use
// it: post a send, poll a completion queue, no interrupts (PIOMan supplies
// the "when to poll" policy above this layer).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/bitmap.hpp"
#include "simcore/engine.hpp"
#include "simmachine/machine.hpp"
#include "simnet/packet.hpp"
#include "simnet/params.hpp"

namespace pm2::obs {
class TraceLog;
}

namespace pm2::net {

class Nic;

/// A switched fabric: every attached NIC can reach every other. Wire timing
/// uses the sending NIC's parameters, so heterogeneous fabrics behave like
/// their slowest path. The fabric keeps per-port state only, none per
/// (src, dst) pair: a fully connected fabric costs O(ports), not O(ports^2).
class Fabric {
 public:
  explicit Fabric(sim::Engine& engine, std::string name = "fabric");

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }

  /// Attach a NIC; returns its port id on this fabric.
  int attach(Nic* nic);

  int num_ports() const { return static_cast<int>(ports_.size()); }
  Nic* port(int id) const { return ports_.at(static_cast<std::size_t>(id)); }

 private:
  friend class Nic;
  /// Deliver @p pkt to its dst_port. @p earliest is when the last bit
  /// could arrive if the receiving port were idle; with several senders
  /// converging on one port (incast), the switch serializes them: each
  /// packet additionally occupies the destination port for its
  /// serialization time @p occupancy.
  void deliver_at(sim::Time earliest, sim::Time occupancy, Packet pkt);

  sim::Engine& engine_;
  std::string name_;
  std::vector<Nic*> ports_;
  std::vector<sim::Time> port_busy_until_;
  /// Partition owning each port (recorded at attach time). In partitioned
  /// worlds the wire hop is the only cross-partition edge: deliver_at hops
  /// into the receiver's partition first, then resolves incast contention
  /// against port_busy_until_ there, so that state stays single-owner.
  std::vector<int> port_partition_;
};

class Nic {
 public:
  /// Create a NIC on @p machine attached to @p fabric.
  Nic(mach::Machine& machine, Fabric& fabric, NicParams params);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  mach::Machine& machine() const { return machine_; }
  const NicParams& params() const { return params_; }
  Fabric& fabric() const { return fabric_; }
  int port() const { return port_; }

  // --- send path -----------------------------------------------------------

  /// True if the tx queue has room for another post.
  bool tx_ready() const {
    return static_cast<int>(tx_inflight_) < params_.tx_queue_depth;
  }

  /// Packets posted and not yet absorbed by the wire.
  std::size_t tx_inflight() const { return tx_inflight_; }

  /// True if the transmit path is completely idle (the moment the
  /// NIC-driven optimization layer waits for, paper Fig. 1).
  bool tx_idle() const { return tx_inflight_ == 0; }

  /// Post one packet. Charges the host-side post cost to the current
  /// execution context (if any). Pre: tx_ready().
  /// @p on_wire_done, if given, fires (in engine context) once the wire has
  /// absorbed the packet -- the moment the sender's buffer is reusable; it
  /// is the send's one completion signal.
  void post_send(int dst_port, Channel channel, Payload payload,
                 std::function<void()> on_wire_done = nullptr);

  /// Convenience overload: raw flat bytes (tests, fault injection).
  void post_send(int dst_port, Channel channel,
                 std::vector<std::uint8_t> payload,
                 std::function<void()> on_wire_done = nullptr) {
    post_send(dst_port, channel, Payload(std::move(payload)),
              std::move(on_wire_done));
  }

  /// Notifier invoked (in engine context) whenever a tx slot frees up.
  void set_tx_notifier(std::function<void()> fn) { tx_notifier_ = std::move(fn); }

  // --- receive path ----------------------------------------------------------

  /// Number of independent RX completion queues (1 = classic single-queue
  /// NIC). Each queue has its own ring, doorbell flag and depth gauge;
  /// packets are steered between them at enqueue_rx time (RSS-style).
  int rx_queues() const { return static_cast<int>(rx_rings_.size()); }

  /// Resize the RX side to @p n independent completion queues. Must run
  /// before any packet arrives (a real NIC reconfigures queues only while
  /// quiesced); n == 1 restores the classic single-queue behaviour.
  void configure_rx_queues(int n);

  /// Install the RSS steering function: maps an arriving packet to a
  /// non-negative steering key (typically the wire-format endpoint id);
  /// the packet lands in ring `key % rx_queues()`. Ignored while
  /// rx_queues() == 1, so the single-queue path never pays the lookup.
  void set_rx_steer(std::function<int(const Packet&)> fn) {
    rx_steer_ = std::move(fn);
  }

  /// Unpriced peek used by progression engines to decide whether polling
  /// is worth pricing. (A real driver reads a doorbell/seqno word; the
  /// price of that read is folded into poll()'s cost.) A packet already
  /// claimed by an in-progress poll (its cost still being charged) still
  /// counts as pending here: the claim only commits when the poll's DMA
  /// read completes, which is when the doorbell word is rewritten.
  bool rx_pending() const {
    for (const auto& ring : rx_rings_) {
      if (!ring.empty()) return true;
    }
    for (std::uint32_t c : rx_claimed_) {
      if (c != 0) return true;
    }
    return false;
  }

  /// Per-queue doorbell: unpriced peek of one ring's doorbell flag.
  bool rx_pending(int q) const { return rx_doorbells_.test(q); }

  /// Lowest ring >= @p from whose doorbell is raised, or -1: one unpriced
  /// read of the doorbell mask, so a drain visits only non-empty rings.
  int next_raised(int from) const { return rx_doorbells_.next(from); }

  /// Poll RX queue @p q: pops its oldest delivered packet, if any.
  /// Charges poll_hit/poll_empty to the current context. Payload copy-out
  /// costs are charged by the consuming layer (it knows the user buffer).
  ///
  /// The packet is claimed from the ring *before* the poll cost is charged:
  /// a charge may yield the calling fiber, and claim-then-charge keeps the
  /// observe/dequeue pair atomic with respect to that yield -- concurrent
  /// pollers can never both commit to the same doorbell observation.
  std::optional<Packet> poll(int q = 0);

  /// poll() of a ring the caller's unpriced peeks found empty, without the
  /// charge: count the empty poll and return its price for the caller to
  /// charge.
  sim::Time count_empty_poll() {
    ++polls_empty_;
    m_polls_empty_.inc();
    return params_.poll_empty_cost;
  }

  /// Attach a timeline: tx spans and rx instants recorded into @p timeline
  /// under (pid=@p pid, tid=@p tid). nullptr detaches.
  void set_timeline(obs::TraceLog* timeline, int pid, int tid);

  // --- statistics -------------------------------------------------------------

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t polls_empty() const { return polls_empty_; }
  std::uint64_t polls_hit() const { return polls_hit_; }

 private:
  friend class Fabric;
  void enqueue_rx(Packet pkt);
  std::int64_t total_rx_depth() const;

  mach::Machine& machine_;
  Fabric& fabric_;
  NicParams params_;
  int port_;

  sim::Time tx_busy_until_ = 0;
  std::size_t tx_inflight_ = 0;
  std::uint64_t tx_seq_ = 0;
  std::function<void()> tx_notifier_;

  /// One SPSC ring per RX queue (size 1 unless configure_rx_queues ran).
  /// Ring 0 with no steering is byte-for-byte the legacy rx_queue_.
  std::vector<std::deque<Packet>> rx_rings_{1};
  /// Doorbell mask, one bit per ring: set on enqueue, cleared when the
  /// ring drains.
  sim::Bitmap rx_doorbells_{1};
  /// Packets popped by an in-progress poll whose cost charge has not
  /// completed yet. Unpriced full-NIC peeks (rx_pending()) and the total
  /// depth gauge still count them -- that matches the historical
  /// charge-then-pop observable timing byte for byte -- but the ring
  /// itself no longer holds them, so a concurrent poll can never claim
  /// the same packet twice.
  std::vector<std::uint32_t> rx_claimed_ = std::vector<std::uint32_t>(1, 0);
  std::function<int(const Packet&)> rx_steer_;
  obs::TraceLog* timeline_ = nullptr;
  int timeline_pid_ = 0;
  int timeline_tid_ = 0;
  // Interned timeline names, cached per (size, port) so steady-state
  // pingpong traffic formats no strings on the hot path.
  std::uint16_t tl_cat_nic_ = 0;
  std::uint16_t tl_tx_name_ = 0;
  std::size_t tl_tx_size_ = static_cast<std::size_t>(-1);
  int tl_tx_port_ = -1;
  std::uint16_t tl_rx_name_ = 0;
  std::size_t tl_rx_size_ = static_cast<std::size_t>(-1);
  int tl_rx_port_ = -1;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t polls_empty_ = 0;
  std::uint64_t polls_hit_ = 0;

  // Registry instruments, labeled (nic, <machine>, <fabric>.*) -- the
  // fabric name disambiguates the per-rail NICs of one node.
  obs::Counter m_tx_packets_;
  obs::Counter m_tx_bytes_;
  obs::Counter m_rx_packets_;
  obs::Counter m_rx_bytes_;
  obs::Counter m_polls_hit_;
  obs::Counter m_polls_empty_;
  obs::Gauge m_rx_queue_depth_;
  /// Per-ring depth gauges, registered only when rx_queues() > 1 (so the
  /// single-queue metric namespace is untouched).
  std::vector<obs::Gauge> m_rxq_depth_;
};

}  // namespace pm2::net
