// pm2sim -- gates: per-peer connection state.
//
// A gate bundles everything NewMadeleine keeps per communication partner
// (paper Fig. 1 / Sec. 3.2):
//   * the collect layer's list of packet wrappers waiting to be scheduled
//     (plus a priority list for protocol control chunks),
//   * the receive-side matching state: posted receives, receives bound to an
//     in-flight wire message, and the unexpected-message store.
//
// Gate is a data holder; the logic that manipulates it lives in Core (with
// locking applied according to the configured LockMode) and in
// Strategy::arrange().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "nmad/request.hpp"
#include "nmad/types.hpp"
#include "simmachine/machine.hpp"
#include "simnet/buffer_pool.hpp"
#include "simsan/simsan.hpp"

namespace pm2::nm {

/// An entry of the collect layer's outgoing lists: a message (or protocol
/// chunk) waiting to be arranged into packets by the optimization layer.
struct PackWrapper {
  enum class Kind : std::uint8_t {
    kEager,    ///< small-message data (whole message)
    kRts,      ///< rendezvous request (control)
    kCts,      ///< rendezvous grant (control)
    kRdvData,  ///< granted rendezvous bulk data
  };

  Kind kind = Kind::kEager;
  Request* req = nullptr;  ///< originating send request (null for kCts)
  Tag tag = 0;
  std::uint32_t msg_seq = 0;
  const std::uint8_t* data = nullptr;  ///< message bytes (kEager / kRdvData)
  std::size_t len = 0;                 ///< total message length
  std::size_t offset = 0;              ///< next byte to submit (split sends)
  std::uint64_t cookie = 0;            ///< rendezvous correlation
  /// kCts: the granting receive request -- the host-side model of the RDMA
  /// window the grant advertises. kRdvData: the same window, learned from
  /// the CTS, into which chunks are placed without any wire-side copy.
  Request* rdv_window = nullptr;

  std::size_t remaining() const { return len - offset; }
};

/// One chunk of an unexpected message, kept without copying: the packet's
/// data slab is shared (SlabRef) until the bytes reach a user buffer.
struct UnexpectedPiece {
  std::size_t offset = 0;  ///< byte offset within the message
  std::uint32_t len = 0;
  const std::uint8_t* data = nullptr;
  net::SlabRef backing;  ///< keeps *data alive (packet slab or pool copy)
};

/// A message (or rendezvous announcement) that arrived before a matching
/// receive was posted.
struct UnexpectedMsg {
  Tag tag = 0;
  std::uint32_t msg_seq = 0;
  std::size_t total_len = 0;
  bool is_rdv = false;
  std::uint64_t rts_cookie = 0;
  std::vector<UnexpectedPiece> pieces;  ///< eager chunks, arrival order
  std::size_t filled = 0;
};

class Gate {
 public:
  Gate(int peer_node, std::vector<int> peer_ports)
      : peer_node_(peer_node), peer_ports_(std::move(peer_ports)) {}

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  int peer_node() const { return peer_node_; }

  /// Endpoint this gate belongs to (scalable endpoints): a core with N
  /// endpoints keeps N gates per peer, one per endpoint, each with its own
  /// collect/matching state. 0 for the classic single-instance layout.
  int endpoint() const { return endpoint_; }

  /// Destination fabric port on rail @p rail.
  int peer_port(int rail) const {
    return peer_ports_.at(static_cast<std::size_t>(rail));
  }

  bool has_outgoing() const {
    return !ctrl_list_.empty() || !out_list_.empty();
  }

 private:
  friend class Core;
  friend class Strategy;  // arrange() manipulates the collect lists

  /// The receive bound to @p msg_seq, or null.
  Request* bound_recv(std::uint32_t msg_seq) const {
    for (const auto& [seq, req] : bound_recvs_) {
      if (seq == msg_seq) return req;
    }
    return nullptr;
  }
  /// @p msg_seq has no bound receive: a chunk of a bound message finds its
  /// receive, and an adopted unexpected message is one whose chunks found
  /// none.
  void bind_recv(std::uint32_t msg_seq, Request* req) {
    bound_recvs_.emplace_back(msg_seq, req);
  }
  void unbind_recv(std::uint32_t msg_seq) {
    for (auto& entry : bound_recvs_) {
      if (entry.first == msg_seq) {
        entry = bound_recvs_.back();
        bound_recvs_.pop_back();
        return;
      }
    }
  }

  int peer_node_;
  std::vector<int> peer_ports_;
  int endpoint_ = 0;  ///< owning endpoint index (set by Core::connect)

  // --- collect layer (protected by the collect lock) ----------------------
  std::deque<PackWrapper> ctrl_list_;  ///< RTS/CTS: scheduled with priority
  std::deque<PackWrapper> out_list_;   ///< data awaiting arrangement
  std::uint32_t next_send_seq_ = 0;
  mach::CacheLine out_line_;  ///< tracks which core last touched the lists
  /// simsan shared-state handle covering the collect lists above; every
  /// mutation site reports SIMSAN_ACCESS on it (named by Core::connect).
  san::Shared san_collect_{"gate.collect"};

  // --- receive matching (protected by the matching lock) ------------------
  std::deque<Request*> posted_recvs_;                    ///< unmatched, FIFO
  /// Receives bound to a wire message still arriving, keyed by msg_seq. A
  /// gate has few messages in flight, so the table is flat: binding
  /// allocates only when it outgrows its largest size so far.
  std::vector<std::pair<std::uint32_t, Request*>> bound_recvs_;
  std::deque<UnexpectedMsg> unexpected_;                 ///< arrival order
  san::Shared san_matching_{"gate.matching"};  ///< covers the tables above

  /// Channel match order. The packer drains a gate's ctrl list ahead of
  /// its out list, so an RTS can leave the sender before earlier eagers of
  /// the same channel; matching in channel order means stashing such an
  /// early RTS until the eagers before it arrive.
  struct EarlyRts {
    Tag tag = 0;
    std::size_t total_len = 0;
    std::uint64_t cookie = 0;
  };
  std::uint32_t next_match_seq_ = 0;  ///< next matchable msg_seq expected
  std::map<std::uint32_t, EarlyRts> early_rts_;  ///< stashed, keyed msg_seq
};

}  // namespace pm2::nm
