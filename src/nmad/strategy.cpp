#include "nmad/strategy.hpp"

#include <algorithm>
#include <cassert>

#include "simsan/context.hpp"

namespace pm2::nm {

namespace {

/// Maximum aggregated packet payload (kAggreg / kSplit).
constexpr std::size_t kAggregMax = 4096;
/// Minimum message size worth splitting across rails (kSplit).
constexpr std::size_t kSplitMin = std::size_t{16} * 1024;
/// Arrangement CPU cost: per packet arranged / per chunk placed.
constexpr sim::Time kPacketCost = 60;
constexpr sim::Time kChunkCost = 40;
/// Cap on packets one arrangement round may stage (bounds the work done in
/// a single progression pass).
constexpr std::size_t kMaxPacketsPerRound = 8;

ChunkHeader header_for(const PackWrapper& pw, std::size_t chunk_len, int ep) {
  ChunkHeader h;
  h.ep = static_cast<std::uint8_t>(ep);
  switch (pw.kind) {
    case PackWrapper::Kind::kEager: h.kind = ChunkKind::kEager; break;
    case PackWrapper::Kind::kRts: h.kind = ChunkKind::kRts; break;
    case PackWrapper::Kind::kCts: h.kind = ChunkKind::kCts; break;
    case PackWrapper::Kind::kRdvData: h.kind = ChunkKind::kRdvData; break;
  }
  h.tag = pw.tag;
  h.msg_seq = pw.msg_seq;
  h.offset = static_cast<std::uint32_t>(pw.offset);
  h.chunk_len = static_cast<std::uint32_t>(chunk_len);
  h.total_len = static_cast<std::uint32_t>(pw.len);
  h.cookie = pw.cookie;
  return h;
}

}  // namespace

Strategy::Strategy(StrategyKind kind)
    : aggreg_budget_(kind == StrategyKind::kDefault ? 0 : kAggregMax),
      split_rdv_(kind == StrategyKind::kSplit) {}

void Strategy::arrange(Gate& gate, const std::vector<Driver*>& rails,
                       mth::ExecContext& ctx, std::vector<Arranged>& out) {
  assert(!rails.empty());
  // Arranging consumes the collect lists; the caller holds the collect lock.
  SIMSAN_ACCESS(gate.san_collect_);
  sim::Time cost = 0;
  // Control and eager data are FIFO on rail 0 (see rail policy above); if
  // rail 0 is backed up, leave everything in the collect lists for a later
  // round (a tx completion will trigger one).
  if (!rails[0]->ready()) {
    ctx.charge(cost);
    return;
  }

  // Header-size hint: every ctrl wrapper becomes one chunk in the first
  // packet, and eager aggregation typically adds at least one more.
  builder_.reserve(gate.ctrl_list_.size() + 1, 0);

  std::vector<Request*> accounted;
  std::vector<RdvPlacement> placements;
  std::uint64_t gathered_bytes = 0;
  std::uint32_t gathered_chunks = 0;

  auto account_chunk = [&](PackWrapper& pw) {
    cost += kChunkCost;
    // Data-bearing wrappers complete via wire-done accounting, including
    // zero-length messages; RTS completion instead awaits the bulk data.
    if (pw.req != nullptr && (pw.kind == PackWrapper::Kind::kEager ||
                              pw.kind == PackWrapper::Kind::kRdvData)) {
      ++pw.req->inflight_chunks_;
      accounted.push_back(pw.req);
    }
  };
  // Gather one data chunk into the packet's pooled slab -- the single host
  // copy of the eager path (and of rendezvous fallback when no window is
  // known, e.g. raw-injected CTS).
  auto gather_chunk = [&](PackWrapper& pw, std::size_t len) {
    builder_.add_chunk(header_for(pw, len, gate.endpoint()),
                       pw.data + pw.offset);
    if (len > 0) {
      gathered_bytes += len;
      ++gathered_chunks;
      if (pw.req != nullptr) ++pw.req->host_copies_;
    }
  };
  auto flush = [&](int rail, net::Channel trk) {
    if (builder_.chunk_count() == 0) return;
    Arranged a;
    a.rail = rail;
    a.pkt.trk = trk;
    a.pkt.dst_port = gate.peer_port(rail);
    a.pkt.payload = builder_.take();
    a.pkt.accounted = std::move(accounted);
    accounted.clear();
    a.pkt.placements = std::move(placements);
    placements.clear();
    a.pkt.gathered_bytes = gathered_bytes;
    a.pkt.gathered_chunks = gathered_chunks;
    gathered_bytes = 0;
    gathered_chunks = 0;
    out.push_back(std::move(a));
    cost += kPacketCost;
  };

  // 1. Protocol control chunks (RTS / CTS) ride first, aggregated. A CTS
  //    carries the granting request as a host-only annotation: the model
  //    of the memory window an RDMA grant would advertise.
  while (!gate.ctrl_list_.empty()) {
    PackWrapper& pw = gate.ctrl_list_.front();
    builder_.add_chunk(header_for(pw, 0, gate.endpoint()), nullptr);
    if (pw.kind == PackWrapper::Kind::kCts) {
      builder_.annotate_last(pw.rdv_window);
    }
    account_chunk(pw);
    gate.ctrl_list_.pop_front();
  }

  // 2. Eager data, FIFO, whole messages only.
  while (!gate.out_list_.empty() && out.size() < kMaxPacketsPerRound) {
    PackWrapper& pw = gate.out_list_.front();
    if (pw.kind == PackWrapper::Kind::kRdvData) break;  // bulk: step 3
    assert(pw.kind == PackWrapper::Kind::kEager);
    const std::size_t len = pw.remaining();
    const bool fits_aggregate =
        aggreg_budget_ > 0 && builder_.size_with(len) <= aggreg_budget_;
    if (!fits_aggregate && builder_.chunk_count() > 0) {
      flush(0, kTrkSmall);  // close the current aggregate first
    }
    gather_chunk(pw, len);
    account_chunk(pw);
    pw.offset += len;
    pw.req->filled_ = pw.len;
    pw.req->fully_submitted_ = true;
    gate.out_list_.pop_front();
    if (!fits_aggregate) flush(0, kTrkSmall);
  }
  flush(0, kTrkSmall);

  // Emit one rendezvous data chunk. With a known window (the normal case:
  // the CTS told us the receiving request) the chunk is *placed*: zero host
  // copies, the Core executes the recorded placements at commit. Without a
  // window, fall back to gathering real bytes.
  auto emit_rdv_chunk = [&](PackWrapper& pw, std::size_t len) {
    if (pw.rdv_window != nullptr) {
      builder_.add_chunk_placed(header_for(pw, len, gate.endpoint()));
      placements.push_back({pw.rdv_window,
                            static_cast<std::uint32_t>(pw.offset),
                            pw.data + pw.offset,
                            static_cast<std::uint32_t>(len)});
    } else {
      gather_chunk(pw, len);
    }
  };

  // 3. Rendezvous bulk data on trk 1, optionally split across rails.
  while (!gate.out_list_.empty() && out.size() < kMaxPacketsPerRound &&
         gate.out_list_.front().kind == PackWrapper::Kind::kRdvData) {
    PackWrapper& pw = gate.out_list_.front();
    std::vector<int> ready;
    for (std::size_t r = 0; r < rails.size(); ++r) {
      if (rails[r]->ready()) ready.push_back(static_cast<int>(r));
    }
    if (ready.empty()) break;
    if (!split_rdv_ || ready.size() < 2 || pw.remaining() < kSplitMin) {
      // Whole remaining payload on the first ready rail.
      const int rail = ready.front();
      const std::size_t len = pw.remaining();
      emit_rdv_chunk(pw, len);
      account_chunk(pw);
      pw.offset += len;
      flush(rail, kTrkBulk);
    } else {
      // Weight rails by bandwidth (inverse of ns/byte).
      double total_weight = 0;
      for (int r : ready) {
        total_weight += 1.0 / rails[static_cast<std::size_t>(r)]
                                  ->nic()
                                  .params()
                                  .wire_ns_per_byte;
      }
      const std::size_t total = pw.remaining();
      std::size_t assigned = 0;
      for (std::size_t i = 0; i < ready.size(); ++i) {
        const int r = ready[i];
        std::size_t len;
        if (i + 1 == ready.size()) {
          len = total - assigned;  // remainder
        } else {
          const double w = (1.0 / rails[static_cast<std::size_t>(r)]
                                      ->nic()
                                      .params()
                                      .wire_ns_per_byte) /
                           total_weight;
          len = std::min<std::size_t>(
              total - assigned,
              static_cast<std::size_t>(static_cast<double>(total) * w));
        }
        if (len == 0) continue;
        emit_rdv_chunk(pw, len);
        account_chunk(pw);
        pw.offset += len;
        assigned += len;
        flush(r, kTrkBulk);
      }
    }
    if (pw.remaining() == 0) {
      pw.req->filled_ = pw.len;
      pw.req->fully_submitted_ = true;
      gate.out_list_.pop_front();
    }
  }

  ctx.charge(cost);
}

}  // namespace pm2::nm
