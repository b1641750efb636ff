#include "simnet/nic.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace_log.hpp"
#include "simthread/exec_context.hpp"

namespace pm2::net {

namespace {
// Hook contexts accumulate their CPU cost instead of advancing the clock;
// anything they do to the *timeline* (like starting a DMA) must be skewed
// by the work they have already performed in this pass.
sim::Time hook_skew() {
  auto* ctx = mth::ExecContext::current_or_null();
  if (ctx != nullptr && !ctx->can_block()) {
    return static_cast<mth::HookContext*>(ctx)->consumed();
  }
  return 0;
}
}  // namespace

Fabric::Fabric(sim::Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

int Fabric::attach(Nic* nic) {
  ports_.push_back(nic);
  port_busy_until_.push_back(0);
  port_partition_.push_back(engine_.current_partition());
  return static_cast<int>(ports_.size()) - 1;
}

void Fabric::deliver_at(sim::Time earliest, sim::Time occupancy, Packet pkt) {
  if (engine_.num_partitions() > 1) {
    // Partitioned engine: the port-contention clock belongs to the
    // receiver's partition, so hop there first -- the earliest-arrival time
    // is what carries the lookahead across the boundary -- and resolve
    // incast serialization on the receiver's side, in arrival order.
    const int dst_part =
        port_partition_[static_cast<std::size_t>(pkt.dst_port)];
    engine_.schedule_cross(
        dst_part, earliest,
        [this, occupancy, p = std::move(pkt)]() mutable {
          sim::Time& busy =
              port_busy_until_[static_cast<std::size_t>(p.dst_port)];
          const sim::Time now = engine_.now();
          const sim::Time when = std::max(now, busy + occupancy);
          busy = when;
          Nic* dst = port(p.dst_port);
          if (when == now) {
            dst->enqueue_rx(std::move(p));
          } else {
            engine_.schedule_at(when, [dst, p2 = std::move(p)]() mutable {
              dst->enqueue_rx(std::move(p2));
            });
          }
        });
    return;
  }
  // Output-port contention: packets from different senders converging on
  // one port serialize on its egress link.
  sim::Time& busy = port_busy_until_[static_cast<std::size_t>(pkt.dst_port)];
  const sim::Time when = std::max(earliest, busy + occupancy);
  busy = when;
  engine_.schedule_at(when, [this, p = std::move(pkt)]() mutable {
    Nic* dst = port(p.dst_port);
    dst->enqueue_rx(std::move(p));
  });
}

Nic::Nic(mach::Machine& machine, Fabric& fabric, NicParams params)
    : machine_(machine), fabric_(fabric), params_(std::move(params)) {
  port_ = fabric.attach(this);
  auto& reg = obs::MetricsRegistry::global();
  const std::string& node = machine_.name();
  const std::string& rail = fabric_.name();
  m_tx_packets_ = reg.counter({"nic", node, -1, rail, ".tx_packets"});
  m_tx_bytes_ = reg.counter({"nic", node, -1, rail, ".tx_bytes"});
  m_rx_packets_ = reg.counter({"nic", node, -1, rail, ".rx_packets"});
  m_rx_bytes_ = reg.counter({"nic", node, -1, rail, ".rx_bytes"});
  m_polls_hit_ = reg.counter({"nic", node, -1, rail, ".polls_hit"});
  m_polls_empty_ = reg.counter({"nic", node, -1, rail, ".polls_empty"});
  m_rx_queue_depth_ = reg.gauge({"nic", node, -1, rail, ".rx_queue_depth"});
}

void Nic::post_send(int dst_port, Channel channel, Payload payload,
                    std::function<void()> on_wire_done) {
  if (!tx_ready()) {
    throw std::logic_error("Nic::post_send: tx queue full (check tx_ready)");
  }
  if (dst_port < 0 || dst_port >= fabric_.num_ports()) {
    throw std::out_of_range("Nic::post_send: bad destination port");
  }
  const std::size_t size = payload.size();
  // Host-side cost: descriptor plus either the PIO staging copy (small
  // messages) or the constant DMA setup (large ones).
  const sim::Time xfer_cpu =
      size <= params_.pio_threshold
          ? byte_time(params_.tx_copy_per_byte, size)
          : params_.tx_dma_setup;
  mth::charge_if_ctx(params_.tx_post_cost + xfer_cpu);

  Packet pkt;
  pkt.src_port = port_;
  pkt.dst_port = dst_port;
  pkt.channel = channel;
  pkt.seq = tx_seq_++;
  pkt.payload = std::move(payload);

  ++tx_inflight_;
  ++packets_sent_;
  bytes_sent_ += size;
  m_tx_packets_.inc();
  m_tx_bytes_.inc(size);

  sim::Engine& eng = fabric_.engine();
  // NIC pipeline: DMA, then the wire serializes this packet after any
  // packet already occupying our tx path. When posted from a hook, the
  // hook's accumulated CPU time has not reached the clock yet: skew the
  // pipeline start accordingly.
  const sim::Time dma_done = eng.now() + hook_skew() + params_.tx_dma_delay;
  const sim::Time wire_start = std::max(dma_done, tx_busy_until_);
  const sim::Time wire_end =
      wire_start + byte_time(params_.wire_ns_per_byte, size);
  tx_busy_until_ = wire_end;

  eng.schedule_at(wire_end, [this, done = std::move(on_wire_done)] {
    assert(tx_inflight_ > 0);
    --tx_inflight_;
    if (done) done();
    if (tx_notifier_) tx_notifier_();
  });

  if (timeline_ != nullptr) {
    if (size != tl_tx_size_ || dst_port != tl_tx_port_) {
      tl_tx_name_ = timeline_->intern("tx " + std::to_string(size) +
                                      "B -> port " + std::to_string(dst_port));
      tl_tx_size_ = size;
      tl_tx_port_ = dst_port;
    }
    timeline_->complete_event(tl_tx_name_, tl_cat_nic_, timeline_pid_,
                              timeline_tid_, wire_start,
                              wire_end - wire_start);
  }

  const sim::Time arrival =
      wire_end + params_.wire_latency + params_.rx_deliver_delay;
  fabric_.deliver_at(arrival, byte_time(params_.wire_ns_per_byte, size),
                     std::move(pkt));
}

void Nic::set_timeline(obs::TraceLog* timeline, int pid, int tid) {
  timeline_ = timeline;
  timeline_pid_ = pid;
  timeline_tid_ = tid;
  tl_cat_nic_ = timeline != nullptr ? timeline->intern("nic") : 0;
  tl_tx_size_ = static_cast<std::size_t>(-1);
  tl_tx_port_ = -1;
  tl_rx_size_ = static_cast<std::size_t>(-1);
  tl_rx_port_ = -1;
}

void Nic::configure_rx_queues(int n) {
  if (n < 1) {
    throw std::invalid_argument("Nic::configure_rx_queues: need n >= 1");
  }
  if (packets_received_ != 0 || rx_pending()) {
    throw std::logic_error(
        "Nic::configure_rx_queues: NIC must be quiesced (no rx traffic yet)");
  }
  rx_rings_.assign(static_cast<std::size_t>(n), {});
  rx_doorbells_.resize(n);
  rx_claimed_.assign(static_cast<std::size_t>(n), 0);
  m_rxq_depth_.clear();
  if (n > 1) {
    auto& reg = obs::MetricsRegistry::global();
    const std::string& node = machine_.name();
    const std::string& rail = fabric_.name();
    m_rxq_depth_.reserve(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
      const std::string ring = ".rxq" + std::to_string(q) + ".depth";
      m_rxq_depth_.push_back(reg.gauge({"nic", node, -1, rail, ring}));
    }
  }
}

void Nic::enqueue_rx(Packet pkt) {
  ++packets_received_;
  bytes_received_ += pkt.size();
  m_rx_packets_.inc();
  m_rx_bytes_.inc(pkt.size());
  if (timeline_ != nullptr) {
    if (pkt.size() != tl_rx_size_ || pkt.src_port != tl_rx_port_) {
      tl_rx_name_ =
          timeline_->intern("rx " + std::to_string(pkt.size()) +
                            "B <- port " + std::to_string(pkt.src_port));
      tl_rx_size_ = pkt.size();
      tl_rx_port_ = pkt.src_port;
    }
    timeline_->instant_event(tl_rx_name_, tl_cat_nic_, timeline_pid_,
                             timeline_tid_, fabric_.engine().now());
  }
  const int nq = rx_queues();
  std::size_t q = 0;
  if (nq > 1 && rx_steer_) {
    q = static_cast<std::size_t>(rx_steer_(pkt) % nq);
  }
  rx_rings_[q].push_back(std::move(pkt));
  rx_doorbells_.set(static_cast<int>(q));
  if (nq > 1) {
    m_rxq_depth_[q].set(static_cast<std::int64_t>(rx_rings_[q].size()));
  }
  m_rx_queue_depth_.set(total_rx_depth());
}

std::int64_t Nic::total_rx_depth() const {
  std::int64_t d = 0;
  for (const auto& ring : rx_rings_) d += static_cast<std::int64_t>(ring.size());
  for (std::uint32_t c : rx_claimed_) d += c;
  return d;
}

Packet Nic::RxRing::take_front() {
  Packet pkt = std::move(items_[head_++]);
  if (empty()) {
    items_.clear();
    head_ = 0;
  } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return pkt;
}

std::optional<Packet> Nic::poll(int q) {
  auto& ring = rx_rings_[static_cast<std::size_t>(q)];
  if (ring.empty()) {
    mth::charge_if_ctx(count_empty_poll());
    return std::nullopt;
  }
  ++polls_hit_;
  m_polls_hit_.inc();
  // Claim the packet before charging: the charge may yield this fiber, and
  // a stale doorbell observation must never let a concurrent poller pop the
  // same slot. The claim stays visible to unpriced full-NIC peeks (and the
  // total depth gauge) until the charge completes, so single-queue
  // schedules keep the historical observable timing byte for byte.
  Packet pkt = ring.take_front();
  if (ring.empty()) rx_doorbells_.reset(q);
  ++rx_claimed_[static_cast<std::size_t>(q)];
  mth::charge_if_ctx(params_.poll_hit_cost);
  --rx_claimed_[static_cast<std::size_t>(q)];
  if (rx_queues() > 1) {
    m_rxq_depth_[static_cast<std::size_t>(q)].set(
        static_cast<std::int64_t>(ring.size()));
  }
  m_rx_queue_depth_.set(total_rx_depth());
  return pkt;
}

}  // namespace pm2::net
