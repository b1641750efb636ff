// pm2sim -- optimization-layer strategies (paper Fig. 1, "Optimization
// Layer"): when a NIC can accept work, a strategy inspects the gate's
// collect lists and arranges the best packet(s) to commit to the transfer
// layer -- aggregating small messages, splitting bulk data across rails.
//
// Rail policy (and why): control and eager data always travel on rail 0 so
// that per-(gate, tag) FIFO ordering is guaranteed by the in-order wire;
// only *bound* rendezvous data -- whose matching was already established by
// the RTS/CTS handshake -- may be split across rails, where reordering is
// harmless because chunks carry explicit offsets.
#pragma once

#include <cstddef>
#include <vector>

#include "nmad/driver.hpp"
#include "nmad/gate.hpp"
#include "nmad/types.hpp"
#include "nmad/wire_format.hpp"
#include "simthread/exec_context.hpp"

namespace pm2::nm {

/// The optimization layer of one endpoint. Every kind arranges the same
/// FIFO way and differs only in two knobs:
///   kDefault -- one message per packet, rail 0 only;
///   kAggreg  -- control chunks and small messages share packets (packet
///               reordering/coalescing of the paper's core layer);
///   kSplit   -- aggregation plus multirail distribution of rendezvous
///               bulk data.
class Strategy {
 public:
  explicit Strategy(StrategyKind kind);

  /// One arranged packet and the rail it leaves on.
  struct Arranged {
    int rail = 0;
    StagedPacket pkt;
  };

  /// Arrange chunks from @p gate's lists into packets, appended to @p out.
  /// The caller holds the collect lock. Drains all control chunks (RTS/CTS)
  /// plus, under the aggregation budget, as many whole eager messages as
  /// fit, into one packet on rail 0; an oversized eager message goes whole
  /// into its own packet. Then emits rendezvous data, split across ready
  /// rails for kSplit. Charges arrangement CPU to @p ctx. May emit nothing
  /// (e.g. no rail has room).
  void arrange(Gate& gate, const std::vector<Driver*>& rails,
               mth::ExecContext& ctx, std::vector<Arranged>& out);

 private:
  std::size_t aggreg_budget_;  ///< max aggregated payload; 0 = no sharing
  bool split_rdv_;             ///< stripe rendezvous data across rails

  /// Reused across arrangement rounds (always empty between calls) so the
  /// hot path does not reallocate header storage per packet.
  PacketBuilder builder_;
};

}  // namespace pm2::nm
