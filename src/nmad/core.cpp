#include "nmad/core.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "obs/flow.hpp"
#include "simexplore/ctl.hpp"
#include "simsan/context.hpp"

namespace pm2::nm {

namespace {
constexpr int kMaxRails = 4;

/// Fixed per-call bookkeeping cost of the public API.
constexpr sim::Time kApiCost = 50;

/// Core index for flow-event placement; engine context maps to core 0.
int current_core() {
  auto* ctx = mth::ExecContext::current_or_null();
  return ctx != nullptr ? ctx->core() : 0;
}

}  // namespace

Core::Core(mth::Scheduler& sched, Config cfg, std::string name, int endpoints,
           int rx_queues)
    : sched_(sched),
      cfg_(cfg),
      name_(std::move(name)),
      num_eps_(endpoints),
      rx_rings_(std::min(rx_queues, endpoints)) {
  assert(endpoints >= 1 && endpoints <= 255 && rx_queues >= 1);
  active_eps_.resize(num_eps_);
  home_partition_ = engine().current_partition();
  // Endpoints first: endpoint 0's LockSet registers its lock instruments
  // before the core-level counters below, preserving the historical
  // registration order of the single-instance layout.
  eps_.reserve(static_cast<std::size_t>(num_eps_));
  for (int e = 0; e < num_eps_; ++e) {
    eps_.push_back(std::make_unique<Endpoint>(
        sched_, cfg_, e, num_eps_,
        e == 0 ? name_ : name_ + ".ep" + std::to_string(e), kMaxRails,
        home_partition_));
  }
  if (num_eps_ > 1) {
    wildcard_lock_ =
        std::make_unique<sync::SpinLock>(sched_, name_ + "-wildcard");
    park_lock_ = std::make_unique<sync::SpinLock>(sched_, name_ + "-rxpark");
    san_wildcard_.set_name(name_ + ".wildcard");
    san_parked_.set_name(name_ + ".rxpark");
  }
  auto& reg = obs::MetricsRegistry::global();
  const std::string& node = sched_.machine().name();
  m_sends_ = reg.counter({"nmad", node, -1, "sends"});
  m_recvs_ = reg.counter({"nmad", node, -1, "recvs"});
  m_packets_rx_ = reg.counter({"nmad", node, -1, "packets_rx"});
  m_chunks_rx_ = reg.counter({"nmad", node, -1, "chunks_rx"});
  m_unexpected_chunks_ = reg.counter({"nmad", node, -1, "unexpected_chunks"});
  m_rdv_handshakes_ = reg.counter({"nmad", node, -1, "rdv_handshakes"});
  m_progress_passes_ = reg.counter({"nmad", node, -1, "progress_passes"});
  m_rx_rejected_ = reg.counter({"nmad", node, -1, "rx_rejected"});
  m_bytes_copied_ = reg.counter({"nmad", node, -1, "data.bytes_copied"});
  m_copies_ = reg.counter({"nmad", node, -1, "data.copies"});
  m_deliver_bytes_copied_ =
      reg.counter({"nmad", node, -1, "data.deliver_bytes_copied"});
  m_adopt_bytes_copied_ =
      reg.counter({"nmad", node, -1, "data.adopt_bytes_copied"});
  m_placed_bytes_ = reg.counter({"nmad", node, -1, "data.placed_bytes"});
  m_copies_per_msg_ = reg.histogram({"nmad", node, -1, "data.copies_per_msg"});
  submit_tasklet_ = std::make_unique<piom::Tasklet>(
      [this](mth::HookContext& hctx) {
        progress_pass(hctx, /*own_ep=*/-1, /*use_try=*/true,
                      /*submission_only=*/true);
      },
      name_ + "-submit");
}

Core::~Core() {
  if (pioman_) pioman_->unregister_source(this);
}

Driver& Core::add_rail(net::Nic& nic) {
  if (num_rails() >= kMaxRails) {
    throw std::length_error("Core::add_rail: too many rails");
  }
  const int index = num_rails();
  nics_.push_back(&nic);
  if (num_eps_ > 1 && rx_rings_ == 1) {
    nic_rx_locks_.push_back(std::make_unique<sync::SpinLock>(
        sched_, name_ + "-rxpoll" + std::to_string(index)));
  }
  if (rx_rings_ > 1) {
    // Multi-queue rail: the NIC steers arriving packets into `ep % M`
    // rings by the wire-format endpoint id, and each endpoint's progress
    // drains its own ring lock-free.
    nic.configure_rx_queues(rx_rings_);
    nic.set_rx_steer([](const net::Packet& p) {
      return static_cast<int>(peek_packet_ep(p.payload));
    });
    mq_ring_busy_.emplace_back(static_cast<std::size_t>(rx_rings_), 0);
  }
  for (auto& ep : eps_) {
    ep->drivers_.push_back(std::make_unique<Driver>(nic, index));
    Driver* d = ep->drivers_.back().get();
    ep->rail_ptrs_.push_back(d);
    d->san_xfer().set_name(ep->name_ + ".rail" + std::to_string(index) +
                           ".xfer");
  }
  // A freed tx slot is a progression opportunity: let idle cores know.
  nic.set_tx_notifier([this] {
    if (pioman_) pioman_->notify_new_work();
  });
  return *eps_[0]->rail_ptrs_.back();
}

Gate* Core::connect(int peer_node, std::vector<int> peer_ports) {
  if (static_cast<int>(peer_ports.size()) != num_rails()) {
    throw std::invalid_argument("Core::connect: one peer port per rail");
  }
  auto existing = eps_[0]->by_peer_.find(peer_node);
  if (existing != eps_[0]->by_peer_.end()) return existing->second;
  Gate* g0 = nullptr;
  for (auto& ep : eps_) {
    ep->gates_.push_back(std::make_unique<Gate>(peer_node, peer_ports));
    Gate* g = ep->gates_.back().get();
    g->endpoint_ = ep->id_;
    const std::string gate_name = ep->name_ + ".gate" + std::to_string(peer_node);
    g->san_collect_.set_name(gate_name + ".collect");
    g->san_matching_.set_name(gate_name + ".matching");
    ep->by_peer_[peer_node] = g;
    for (int r = 0; r < num_rails(); ++r) {
      ep->src_to_gate_[static_cast<std::size_t>(r)]
                      [peer_ports[static_cast<std::size_t>(r)]] = g;
    }
    if (g0 == nullptr) g0 = g;
  }
  return g0;
}

Gate* Core::gate_to(int peer_node) {
  auto it = eps_[0]->by_peer_.find(peer_node);
  if (it != eps_[0]->by_peer_.end()) return it->second;
  // No gate to ourselves (our own fabric port), and nothing to connect
  // over before the first rail is attached.
  if (nics_.empty() || peer_node == nics_[0]->port()) return nullptr;
  // Lazy connect on first use: NIC attach order guarantees a node's fabric
  // port equals its node index on every rail.
  return connect(peer_node, std::vector<int>(
                                static_cast<std::size_t>(num_rails()),
                                peer_node));
}

Gate* Core::gate_on(int e, Gate* gate) const {
  if (gate->endpoint() == e) return gate;
  const auto& by_peer = eps_[static_cast<std::size_t>(e)]->by_peer_;
  auto it = by_peer.find(gate->peer_node());
  assert(it != by_peer.end() && "gate has no sibling on that endpoint");
  return it->second;
}

void Core::attach_pioman(piom::Server* server) {
  pioman_ = server;
  if (pioman_) pioman_->register_source(this);
}

void Core::attach_tasklets(piom::TaskletEngine* engine) { tasklets_ = engine; }

// --------------------------------------------------------------------------
// Requests
// --------------------------------------------------------------------------

Request* Core::alloc_request() {
  Request* req;
  if (!free_reqs_.empty()) {
    req = free_reqs_.back();
    free_reqs_.pop_back();
    req->flag_.reset();
  } else {
    req_pool_.push_back(std::make_unique<Request>(sched_, 0));
    req = req_pool_.back().get();
  }
  req->id_ = next_req_id_++;
  req->kind_ = ReqKind::kSend;
  req->ep_ = 0;
  req->gate_ = nullptr;
  req->tag_ = 0;
  req->matched_tag_ = 0;
  req->msg_seq_ = 0;
  req->seq_bound_ = false;
  req->send_data_ = nullptr;
  req->inflight_chunks_ = 0;
  req->fully_submitted_ = false;
  req->rdv_granted_ = false;
  req->recv_buf_ = nullptr;
  req->capacity_ = 0;
  req->host_copies_ = 0;
  req->total_len_ = 0;
  req->filled_ = 0;
  req->flow_id_ = 0;
  req->released_ = false;
  return req;
}

void Core::set_flow_tracer(obs::FlowTracer* tracer, int node_id) {
  flow_ = tracer;
  node_id_ = node_id;
  for (auto& ep : eps_) {
    for (auto& d : ep->drivers_) {
      if (tracer == nullptr) {
        d->set_post_observer(nullptr);
        continue;
      }
      d->set_post_observer([this](const StagedPacket& pkt) {
        if (flow_ == nullptr) return;
        const sim::Time now = engine().now();
        const int core = current_core();
        for (Request* r : pkt.accounted) {
          if (r->flow_id_ != 0) {
            flow_->stamp(r->flow_id_, obs::FlowStage::kNicPost, now, node_id_,
                         core);
          }
        }
      });
    }
  }
}

void Core::release(Request* req) {
  assert(req != nullptr && !req->released_);
  assert(req->completed() && "release of an incomplete request");
  eps_[static_cast<std::size_t>(req->ep_)]->send_by_cookie_.erase(req->id_);
  req->released_ = true;
  free_reqs_.push_back(req);
}

void Core::complete_request(Request* req) {
  assert(!req->completed());
  if (flow_ != nullptr && req->kind_ == ReqKind::kRecv &&
      req->flow_id_ != 0) {
    flow_->stamp(req->flow_id_, obs::FlowStage::kComplete, engine().now(),
                 node_id_, current_core());
  }
  m_copies_per_msg_.observe(req->host_copies_);
  req->flag_.set();
  --active_reqs_;
  // Progress signal for the schedule explorer's liveness monitor: a
  // completed request resets the starvation-cycle detector.
  if (xpl::on()) xpl::note_completion();
}

void Core::on_chunks_wire_done(const std::vector<Request*>& reqs) {
  const sim::Time now = flow_ != nullptr ? engine().now() : 0;
  for (Request* req : reqs) {
    assert(req->inflight_chunks_ > 0);
    --req->inflight_chunks_;
    if (flow_ != nullptr && req->flow_id_ != 0) {
      flow_->stamp(req->flow_id_, obs::FlowStage::kWireDone, now, node_id_,
                   current_core());
    }
    if (req->fully_submitted_ && req->inflight_chunks_ == 0 &&
        !req->completed()) {
      complete_request(req);
    }
  }
}

// --------------------------------------------------------------------------
// Public API
// --------------------------------------------------------------------------

Request* Core::isend(Gate* gate, Tag tag, const void* data, std::size_t len) {
  assert(gate != nullptr);
  assert(tag != kAnyTag && "kAnyTag is receive-only");
  auto& ctx = mth::ExecContext::current();
  ctx.charge(kApiCost);

  Request* req = alloc_request();
  req->send_data_ = static_cast<const std::uint8_t*>(data);
  const int e = endpoint_of(tag);
  req->ep_ = e;
  return launch_send(ctx, *eps_[static_cast<std::size_t>(e)], req,
                     gate_on(e, gate), tag, len);
}

Request* Core::launch_send(mth::ExecContext& ctx, Endpoint& ep, Request* req,
                           Gate* gate, Tag tag, std::size_t len) {
  req->kind_ = ReqKind::kSend;
  req->gate_ = gate;
  req->tag_ = tag;
  req->total_len_ = len;
  ++active_reqs_;
  m_sends_.add_always();
  ep.m_sends_.inc();

  const bool rdv = len > cfg_.rdv_threshold;
  if (rdv) ep.send_by_cookie_[req->id_] = req;

  const bool inline_submit =
      cfg_.progress != ProgressMode::kTaskletOffload &&
      cfg_.progress != ProgressMode::kIdleCoreOffload;

  // Collect phase: stage the pack wrapper and -- matching the paper's
  // Sec. 3.1 critical path ("held and released twice: once for submitting
  // the message to the collect layer, once to transmit it through the
  // network") -- arrange packets within the same collect section.
  std::vector<Strategy::Arranged> staged;
  ep.locks_.lock(Domain::kCollect);
  ctx.touch(gate->out_line_);
  SIMSAN_ACCESS(gate->san_collect_);
  req->msg_seq_ = gate->next_send_seq_++;
  req->seq_bound_ = true;
  if (flow_ != nullptr) {
    req->flow_id_ = obs::FlowTracer::flow_id(
        node_id_, gate->peer_node(), flow_seq(ep.id_, req->msg_seq_));
    flow_->stamp(req->flow_id_, obs::FlowStage::kPost, engine().now(),
                 node_id_, ctx.core());
  }
  PackWrapper pw;
  pw.req = req;
  pw.tag = tag;
  pw.msg_seq = req->msg_seq_;
  pw.data = req->send_data_;
  pw.len = len;
  pw.cookie = req->id_;
  if (rdv) {
    pw.kind = PackWrapper::Kind::kRts;
    gate->ctrl_list_.push_back(pw);
  } else {
    pw.kind = PackWrapper::Kind::kEager;
    gate->out_list_.push_back(pw);
  }
  mark_active(ep);
  if (inline_submit) {
    ep.strategy_.arrange(*gate, ep.rail_ptrs_, ctx, staged);
  }
  ep.locks_.unlock(Domain::kCollect);

  // Transmit phase.
  if (inline_submit) {
    commit_staged(ep, staged, /*use_try=*/false);
  } else {
    kick_submission(ctx, ep);
  }
  return req;
}

void Core::kick_submission(mth::ExecContext& ctx, Endpoint& ep) {
  switch (cfg_.progress) {
    case ProgressMode::kTaskletOffload:
      assert(tasklets_ != nullptr && "kTaskletOffload without tasklet engine");
      tasklets_->schedule(submit_tasklet_.get(),
                          cfg_.poll_core >= 0 ? cfg_.poll_core : 0);
      break;
    case ProgressMode::kIdleCoreOffload:
      assert(pioman_ != nullptr && "kIdleCoreOffload without PIOMan");
      pioman_->notify_new_work();
      break;
    default:
      // Inline submission ("transmit through the network", Sec. 3.1).
      submit_step(ctx, ep, /*use_try=*/false);
      break;
  }
}

Request* Core::irecv(Gate* gate, Tag tag, void* buf, std::size_t capacity) {
  assert(gate != nullptr);
  auto& ctx = mth::ExecContext::current();
  ctx.charge(kApiCost);

  Request* req = alloc_request();
  req->recv_buf_ = static_cast<std::uint8_t*>(buf);
  req->capacity_ = capacity;
  if (tag == kAnyTag && num_eps_ > 1) {
    return launch_recv_wildcard(ctx, req, gate);
  }
  const int e = endpoint_of(tag);
  req->ep_ = e;
  return launch_recv(ctx, *eps_[static_cast<std::size_t>(e)], req,
                     gate_on(e, gate), tag);
}

bool Core::adopt_unexpected_locked(mth::ExecContext& ctx, Endpoint& ep,
                                   Gate& gate, Request* req, Tag tag,
                                   bool* adopted_rdv) {
  // Adopt the earliest (lowest msg_seq) unexpected message with this tag.
  auto best = gate.unexpected_.end();
  for (auto it = gate.unexpected_.begin(); it != gate.unexpected_.end();
       ++it) {
    if (tag != kAnyTag && it->tag != tag) continue;
    if (best == gate.unexpected_.end() || it->msg_seq < best->msg_seq) {
      best = it;
    }
  }
  if (best == gate.unexpected_.end()) return false;

  UnexpectedMsg um = std::move(*best);
  gate.unexpected_.erase(best);
  bind_locked(gate, req, um.tag, um.msg_seq, um.total_len);
  if (um.is_rdv) {
    // Late receiver: grant the rendezvous now. The caller flushes the CTS.
    grant_rdv_locked(ep, gate, req, um.rts_cookie);
    *adopted_rdv = true;
    return true;
  }
  // Copy the retained unexpected pieces into the user buffer: the single
  // host copy of the unexpected eager path. The rest of the message, if
  // any, is still in flight and finds the receive bound.
  if (um.filled > 0) {
    for (const auto& piece : um.pieces) {
      req->copy_in(piece.offset, piece.data, piece.len);
    }
    ++req->host_copies_;
    m_adopt_bytes_copied_.inc(um.filled);
    m_bytes_copied_.inc(um.filled);
    m_copies_.inc();
    ctx.charge(net::byte_time(nics_[0]->params().rx_copy_per_byte, um.filled));
  }
  if (flow_ != nullptr) {
    // The bytes reach the user buffer here, not at chunk arrival: the
    // unexpected dwell is part of the unpack segment by design.
    req->flow_id_ = obs::FlowTracer::flow_id(
        gate.peer_node(), node_id_, flow_seq(ep.id_, req->msg_seq_));
    flow_->stamp(req->flow_id_, obs::FlowStage::kDeliver, engine().now(),
                 node_id_, ctx.core());
  }
  req->filled_ += um.filled;
  if (req->filled_ == req->total_len_) {
    gate.unbind_recv(req->msg_seq_);
    complete_request(req);
  }
  return true;
}

Request* Core::match_posted_locked(Endpoint& ep, Gate& gate, Tag tag) {
  for (auto it = gate.posted_recvs_.begin(); it != gate.posted_recvs_.end();
       ++it) {
    if ((*it)->tag_ == tag || (*it)->tag_ == kAnyTag) {
      Request* req = *it;
      gate.posted_recvs_.erase(it);
      return req;
    }
  }
  if (num_eps_ == 1) return nullptr;
  Request* req = claim_wildcard_locked(gate);
  if (req != nullptr) {
    req->ep_ = ep.id_;
    req->gate_ = &gate;
  }
  return req;
}

void Core::bind_locked(Gate& gate, Request* req, Tag tag,
                       std::uint32_t msg_seq, std::size_t total_len) {
  req->matched_tag_ = tag;
  req->msg_seq_ = msg_seq;
  req->seq_bound_ = true;
  req->total_len_ = total_len;
  if (total_len > req->capacity_) {
    throw std::length_error("nm: message exceeds receive buffer (" +
                            std::to_string(total_len) + " > " +
                            std::to_string(req->capacity_) + ")");
  }
  gate.bind_recv(msg_seq, req);
}

void Core::grant_rdv_locked(Endpoint& ep, Gate& gate, Request* req,
                            std::uint64_t cookie) {
  PackWrapper cts;
  cts.kind = PackWrapper::Kind::kCts;
  cts.tag = req->matched_tag_;
  cts.msg_seq = req->msg_seq_;
  cts.cookie = cookie;
  cts.rdv_window = req;  // the window the grant advertises
  SIMSAN_ACCESS(ep.san_deferred_);
  ep.deferred_pws_.emplace_back(&gate, cts);
  mark_active(ep);
  m_rdv_handshakes_.add_always();
}

Request* Core::launch_recv(mth::ExecContext& ctx, Endpoint& ep, Request* req,
                           Gate* gate, Tag tag) {
  req->kind_ = ReqKind::kRecv;
  req->gate_ = gate;
  req->tag_ = tag;
  ++active_reqs_;
  m_recvs_.add_always();
  ep.m_recvs_.inc();

  bool adopted_rdv = false;
  ep.locks_.lock(Domain::kMatching);
  SIMSAN_ACCESS(gate->san_matching_);
  if (!adopt_unexpected_locked(ctx, ep, *gate, req, tag, &adopted_rdv)) {
    gate->posted_recvs_.push_back(req);
  }
  ep.locks_.unlock(Domain::kMatching);

  if (adopted_rdv) {
    flush_deferred(ep, /*use_try=*/false);
    kick_submission(ctx, ep);
  }
  return req;
}

Request* Core::launch_recv_wildcard(mth::ExecContext& ctx, Request* req,
                                    Gate* gate) {
  req->kind_ = ReqKind::kRecv;
  req->gate_ = gate;
  req->tag_ = kAnyTag;
  ++active_reqs_;
  m_recvs_.add_always();

  // Publish first: a message arriving on any endpoint after this instant
  // sees the wildcard in the shared list, and any message that arrived
  // before is found by the scan below -- no window where both sides miss
  // each other.
  {
    const bool locked = wildcard_lock_->try_lock();
    if (locked) SIMSAN_ACCESS(san_wildcard_);
    wildcard_recvs_.push_back(req);
    if (locked) wildcard_lock_->unlock();
  }

  for (int e = 0; e < num_eps_; ++e) {
    Endpoint& ep = *eps_[static_cast<std::size_t>(e)];
    Gate* g = gate_on(e, gate);
    bool adopted_rdv = false;
    bool matched = false;
    ep.locks_.lock(Domain::kMatching);
    SIMSAN_ACCESS(g->san_matching_);
    if (!g->unexpected_.empty()) {
      // Un-publish our request (matching -> wildcard lock order) before
      // adopting; if it is gone, an incoming message already claimed it.
      bool ours = false;
      {
        const bool locked = wildcard_lock_->try_lock();
        if (locked) SIMSAN_ACCESS(san_wildcard_);
        auto it =
            std::find(wildcard_recvs_.begin(), wildcard_recvs_.end(), req);
        if (it != wildcard_recvs_.end()) {
          wildcard_recvs_.erase(it);
          ours = true;
        }
        if (locked) wildcard_lock_->unlock();
      }
      if (!ours) {
        ep.locks_.unlock(Domain::kMatching);
        return req;
      }
      req->ep_ = e;
      req->gate_ = g;
      matched = adopt_unexpected_locked(ctx, ep, *g, req, kAnyTag,
                                        &adopted_rdv);
      if (!matched) {
        // Nothing adoptable after all: re-publish and keep scanning.
        req->ep_ = 0;
        req->gate_ = gate;
        const bool locked = wildcard_lock_->try_lock();
        if (locked) SIMSAN_ACCESS(san_wildcard_);
        wildcard_recvs_.push_back(req);
        if (locked) wildcard_lock_->unlock();
      }
    }
    ep.locks_.unlock(Domain::kMatching);
    if (matched) {
      if (adopted_rdv) {
        flush_deferred(ep, /*use_try=*/false);
        kick_submission(ctx, ep);
      }
      return req;
    }
  }
  return req;
}

Request* Core::claim_wildcard_locked(const Gate& gate) {
  // Unpriced host peek: skip the leaf lock when nothing is parked.
  if (wildcard_recvs_.empty()) return nullptr;
  const bool locked = wildcard_lock_->try_lock();
  if (locked) SIMSAN_ACCESS(san_wildcard_);
  Request* req = nullptr;
  for (auto it = wildcard_recvs_.begin(); it != wildcard_recvs_.end(); ++it) {
    if ((*it)->gate_->peer_node() == gate.peer_node()) {
      req = *it;
      wildcard_recvs_.erase(it);
      break;
    }
  }
  if (locked) wildcard_lock_->unlock();
  return req;
}

bool Core::test(Request* req) {
  auto& ctx = mth::ExecContext::current();
  ctx.charge(kApiCost);
  (void)ctx;
  return req->flag_.test();
}

/// Core::wait's busy loop from the end of a pass that found nothing, as
/// scheduler steps (Scheduler::spin). Each step does what the waiting fiber
/// would do at one instant and returns what it would charge next:
///   after the pass's poll: the runqueue check, the deadline check at the
///     loop top, then CompletionFlag::test()'s line touch (its price);
///   then test()'s spin_retry;
///   at the flag read: the pass's unpriced peeks; an empty pass is recorded
///     and its poll priced.
/// The steps hand back where the fiber would do anything else: at the flag
/// read (flag set, or the pass would find work), at the runqueue check
/// (kCoarse drops and re-takes the library lock; under kFine and kNone a
/// finished timeslice preempts) and at the loop top (deadline passed).
class Core::BusySteps final : public mth::SpinSteps {
 public:
  enum class At { kFlagRead, kRunqueue, kLoopTop };

  BusySteps(Core& core, Request& req, int own_ep, sim::Time deadline)
      : core_(core),
        req_(req),
        self_(*core.sched_.current_thread()),
        own_ep_(own_ep),
        deadline_(deadline) {}

  /// Where the fiber resumes the loop after the last hand-back.
  At resume_at() const { return at_; }

  // A cycle is a loop iteration from any step to the same step of the
  // next (phase_ numbers them as Next); it ends where it started once the
  // flag's line stays on this core, which the scheduler checks.
  sim::Time hand_back_time() const override {
    if (core_.sched_.runqueue_length(self_.core()) == 0) return deadline_;
    // kCoarse hands back at the next runqueue check.
    if (core_.cfg_.lock == LockMode::kCoarse) return 0;
    return std::min(deadline_, self_.slice_end());
  }

  void skip_cycles(std::uint64_t k) override {
    core_.record_empty_pass(k);
    cycles_ += k;
  }

  sim::Time step() override {
    mth::Scheduler& sched = core_.sched_;
    switch (static_cast<Next>(phase_)) {
      case Next::kAfterPoll:
        if (sched.runqueue_length(sched.current_thread()->core()) > 0 &&
            (core_.cfg_.lock == LockMode::kCoarse || sched.timeslice_over())) {
          return hand_back(At::kRunqueue);
        }
        if (sched.engine().now() >= deadline_) return hand_back(At::kLoopTop);
        next(Next::kSpinRetry);
        return req_.flag_.touch_for_test();
      case Next::kSpinRetry:
        next(Next::kFlagRead);
        return sched.costs().spin_retry;
      case Next::kFlagRead:
        if (req_.flag_.is_set() || !core_.pass_is_empty(own_ep_)) {
          return hand_back(At::kFlagRead);
        }
        next(Next::kAfterPoll);
        ++cycles_;
        return core_.record_empty_pass();
    }
    return kHandBack;
  }

 private:
  enum class Next { kAfterPoll, kSpinRetry, kFlagRead };

  void next(Next n) { phase_ = static_cast<int>(n); }

  sim::Time hand_back(At at) {
    at_ = at;
    next(Next::kAfterPoll);  // the next stretch starts after a pass
    return kHandBack;
  }

  Core& core_;
  Request& req_;
  const mth::Thread& self_;  ///< the waiting thread
  int own_ep_;
  sim::Time deadline_;
  At at_ = At::kFlagRead;
};

void Core::wait(Request* req) {
  auto& ctx = mth::ExecContext::current();
  ctx.charge(kApiCost);

  if (cfg_.progress == ProgressMode::kPollThread) {
    // Progression belongs to the dedicated thread; we only watch the flag
    // (this is the Fig. 8 configuration).
    switch (cfg_.wait) {
      case WaitMode::kBusy: req->flag_.wait_busy(); break;
      case WaitMode::kPassive: req->flag_.wait_passive(); break;
      case WaitMode::kFixedSpin:
        req->flag_.wait_fixed_spin(cfg_.fixed_spin_budget);
        break;
    }
    return;
  }

  // The endpoint whose locks this wait may block on. With one endpoint this
  // is the classic whole-library visit; with several, the waiter owns its
  // request's endpoint and only ever try-locks the others (work stealing),
  // so two waiters can never hold-and-wait across endpoints.
  Endpoint& own = *eps_[static_cast<std::size_t>(req->ep_)];

  if (cfg_.wait != WaitMode::kPassive) {
    // Coarse-grain semantics (Sec. 3.1): the mutex is held for the whole
    // visit to the library -- the spinning thread keeps it for the entire
    // polling loop, which is exactly what serializes concurrent
    // communication in Fig. 5. (Re-entrant: inner passes elide locks.)
    // The loop is preemptible at timeslice boundaries (with the lock
    // RELEASED around the preemption) so an oversubscribed core cannot be
    // starved by its own spinner. Busy waiting spins until completion;
    // fixed-spin waiting for its budget, then blocks below.
    const sim::Time deadline = cfg_.wait == WaitMode::kBusy
                                   ? sim::kTimeInfinity
                                   : engine().now() + cfg_.fixed_spin_budget;
    const bool hooks =
        pioman_ != nullptr && cfg_.progress == ProgressMode::kPiomanHooks;
    BusySteps steps(*this, *req, own.id_, deadline);
    own.locks_.lock_library();
    bool tested = false;  // the steps paid the flag test read below
    while (tested || engine().now() < deadline) {
      const bool set = tested ? req->flag_.is_set() : req->flag_.test();
      tested = false;
      if (set) {
        own.locks_.unlock_library();
        return;
      }
      if (hooks) {
        // Polling goes through PIOMan (Fig. 6 configuration).
        pioman_->poll_once(ctx);
      } else if (!progress_pass(ctx, own.id_, /*use_try=*/true)) {
        // The scheduler runs the iterations that follow while they would
        // find nothing, and hands back where this loop resumes.
        sched_.spin(steps);
        tested = steps.resume_at() == BusySteps::At::kFlagRead;
        if (steps.resume_at() != BusySteps::At::kRunqueue) continue;
      }
      if (sched_.runqueue_length(sched_.current_thread()->core()) > 0) {
        const int depth = own.locks_.release_library_all();
        sched_.maybe_preempt();
        own.locks_.reacquire_library(depth);
      }
    }
    own.locks_.unlock_library();
  }
  // "The mutex is released before entering a blocking section" -- any
  // enclosing library visit too: progression must come from elsewhere
  // (PIOMan hooks, other threads).
  const int depth = own.locks_.release_library_all();
  req->flag_.wait_passive();
  own.locks_.reacquire_library(depth);
}

// Note: the blocking conveniences are deliberately NOT one lock-held
// library visit. Holding the coarse mutex from irecv through completion
// deadlocks two communicating thread pairs (each node's holder waits for a
// message whose sender is parked on the peer node's holder) -- the very
// trap the paper's "the mutex is also released before entering a blocking
// section" warns about. The wait itself still holds the lock across its
// polling loop (see wait()).

void Core::send(Gate* gate, Tag tag, const void* data, std::size_t len) {
  Request* req = isend(gate, tag, data, len);
  wait(req);
  release(req);
}

std::size_t Core::recv(Gate* gate, Tag tag, void* buf, std::size_t capacity) {
  Request* req = irecv(gate, tag, buf, capacity);
  wait(req);
  const std::size_t n = req->received_length();
  release(req);
  return n;
}

// --------------------------------------------------------------------------
// Progression
// --------------------------------------------------------------------------

bool Core::pass_is_empty(int own_ep) const {
  if (nics_.size() != 1) return false;
  const net::Nic& nic = *nics_[0];
  if (num_eps_ == 1) {
    // The visit re-enters a library lock its context holds for free; it
    // takes or try-locks one it does not hold, priced.
    if (cfg_.lock == LockMode::kCoarse &&
        (own_ep != 0 || !eps_[0]->locks_.library_locked_by_me())) {
      return false;
    }
    // pump_step's doorbell peek: a packet another fiber has claimed and is
    // mid-charge on still counts.
    return eps_[0]->idle() && !nic.rx_pending();
  }
  // kCoarse try-locks every foreign library; otherwise no endpoint is
  // visited without its active bit, and drain_rails peeks the doorbells.
  if (cfg_.lock == LockMode::kCoarse || active_eps_.next(0) >= 0) return false;
  return rx_rings_ == 1 ? !nic.rx_pending() : nic.next_raised(0) < 0;
}

sim::Time Core::record_empty_pass(std::uint64_t k) {
  m_progress_passes_.add_always(k);
  if (num_eps_ > 1) {
    const int start = rr_;
    rr_ = static_cast<int>((static_cast<std::uint64_t>(rr_) + k) %
                           static_cast<std::uint64_t>(num_eps_));
    // The pass's walk from the cursor finds no active bit; under simsan it
    // checks that every endpoint it skips is idle (once for k passes: no
    // pass changes what it reads).
    if (san::on()) {
      next_visit(start, num_eps_);
      if (start > 0) next_visit(0, start);
    }
  }
  return nics_[0]->count_empty_poll(k);
}

bool Core::progress_pass(mth::ExecContext& ctx, int own_ep, bool use_try,
                         bool submission_only) {
  if (use_try && !submission_only && pass_is_empty(own_ep)) {
    ctx.charge(record_empty_pass());
    return false;
  }
  m_progress_passes_.add_always();
  bool any = false;
  // Deterministic round-robin start so no endpoint is structurally starved
  // when many contexts drive progression.
  const int start = rr_;
  rr_ = (rr_ + 1) % num_eps_;
  // N = 1 and kCoarse visit every endpoint: there an idle visit is priced
  // (pump_step's doorbell poll, the foreign library try-lock), so skipping
  // one would move the schedule. Elsewhere only the active bits are
  // visited, which is what keeps a pass O(active endpoints).
  const bool visit_all = num_eps_ == 1 || cfg_.lock == LockMode::kCoarse;
  // The endpoints from the cursor on, as two ascending runs.
  for (const auto& [lo, hi] :
       {std::pair{start, num_eps_}, std::pair{0, start}}) {
    for (int e = lo; e < hi; ++e) {
      if (!visit_all) {
        e = next_visit(e, hi);
        if (e == hi) break;
      }
      Endpoint& ep = *eps_[static_cast<std::size_t>(e)];
      // Blocking only on the endpoint this context owns (on every endpoint
      // for a blocking pass); a foreign endpoint is try-locked, so no
      // context ever waits on two endpoints' locks.
      const bool steal = use_try && e != own_ep;
      if (!steal) {
        ep.locks_.lock_library();
      } else if (!ep.locks_.try_lock_library()) {
        continue;
      }
      bool adv = flush_deferred(ep, steal);
      adv |= submit_step(ctx, ep, steal);
      if (!submission_only) {
        // The single endpoint drains its rails inside the library visit;
        // N > 1 endpoints take their parked packets here and share
        // drain_rails below.
        adv |= num_eps_ == 1 ? pump_step(ctx, steal)
                             : drain_parked(ctx, ep, steal);
        if (ep.resubmit_hint_) {
          ep.resubmit_hint_ = false;
          adv |= flush_deferred(ep, steal);
          adv |= submit_step(ctx, ep, steal);
        }
      }
      ep.locks_.unlock_library();
      // Only a visit clears the bit, at its end, and only after re-checking
      // every structure: no yield between the check and the clear. Where
      // every endpoint is visited the walk never reads the bits, so the
      // visit leaves them set.
      if (!visit_all && ep.idle()) active_eps_.reset(e);
      if (adv && steal) ep.m_steals_.inc();
      any |= adv;
    }
  }
  if (!submission_only && num_eps_ > 1) {
    any |= drain_rails(ctx, own_ep, use_try);
  }
  return any;
}

int Core::next_visit(int from, int end) const {
  const int next = active_eps_.next(from);
  const int e = next < 0 ? end : std::min(next, end);
  if (san::on()) {
    for (int skipped = from; skipped < e; ++skipped) {
      const Endpoint& ep = *eps_[static_cast<std::size_t>(skipped)];
      if (!ep.idle()) {
        san::violation("progress-skipped-busy-endpoint",
                       ep.name() + " has queued work but no active bit");
      }
    }
  }
  return e;
}

bool Core::progress(mth::ExecContext& ctx) {
  return progress_pass(ctx, /*own_ep=*/-1, /*use_try=*/false);
}

bool Core::poll(mth::ExecContext& ctx) {
  if (cfg_.progress == ProgressMode::kIdleCoreOffload) {
    // Idle cores only take over *submission* work (Sec. 4.2, "while a core
    // is idle, Marcel invokes PIOMan that can detect that a message needs
    // to be submitted to a network").
    if (!has_submission_work()) return false;
    ctx.charge(sched_.costs().idle_offload_detect);
    return progress_pass(ctx, /*own_ep=*/-1, /*use_try=*/true,
                         /*submission_only=*/true);
  }
  return progress_pass(ctx, /*own_ep=*/-1, /*use_try=*/true);
}

bool Core::pending() const {
  if (cfg_.progress == ProgressMode::kIdleCoreOffload) {
    return has_submission_work();
  }
  return active_reqs_ > 0 || has_submission_work();
}

bool Core::has_submission_work() const {
  // A clear bit is an idle endpoint, so an empty mask answers at once.
  for (int e = active_eps_.next(0); e >= 0; e = active_eps_.next(e + 1)) {
    if (eps_[static_cast<std::size_t>(e)]->has_submission_work()) return true;
  }
  return false;
}

bool Core::flush_deferred(Endpoint& ep, bool use_try) {
  // Unpriced peek: the queue is only ever non-empty after a matching-locked
  // section queued protocol work.
  if (ep.deferred_pws_.empty()) return false;
  std::vector<std::pair<Gate*, PackWrapper>> local;
  if (use_try) {
    if (!ep.locks_.try_lock(Domain::kMatching)) return false;
  } else {
    ep.locks_.lock(Domain::kMatching);
  }
  SIMSAN_ACCESS(ep.san_deferred_);
  local.swap(ep.deferred_pws_);
  ep.locks_.unlock(Domain::kMatching);
  if (local.empty()) return false;

  if (use_try) {
    if (!ep.locks_.try_lock(Domain::kCollect)) {
      // Put them back; next pass retries.
      if (ep.locks_.try_lock(Domain::kMatching)) {
        SIMSAN_ACCESS(ep.san_deferred_);
        for (auto& e : local) ep.deferred_pws_.push_back(std::move(e));
        mark_active(ep);
        ep.locks_.unlock(Domain::kMatching);
        return false;
      }
      // Extremely contended: re-queue without the lock. Host execution is
      // single-threaded, so this is safe; the locks model cost, not safety.
      for (auto& e : local) ep.deferred_pws_.push_back(std::move(e));
      mark_active(ep);
      return false;
    }
  } else {
    ep.locks_.lock(Domain::kCollect);
  }
  for (auto& [gate, pw] : local) {
    SIMSAN_ACCESS(gate->san_collect_);
    if (pw.kind == PackWrapper::Kind::kCts) {
      gate->ctrl_list_.push_back(pw);
    } else {
      gate->out_list_.push_back(pw);
    }
  }
  mark_active(ep);
  ep.locks_.unlock(Domain::kCollect);
  return true;
}

bool Core::submit_step(mth::ExecContext& ctx, Endpoint& ep, bool use_try) {
  bool work = false;
  for (const auto& g : ep.gates_) {
    if (g->has_outgoing()) {
      work = true;
      break;
    }
  }
  for (const auto& d : ep.drivers_) {
    if (d->has_pending()) work = true;
  }
  if (!work) return false;

  std::vector<Strategy::Arranged> staged;
  bool locked_collect;
  if (use_try) {
    locked_collect = ep.locks_.try_lock(Domain::kCollect);
  } else {
    ep.locks_.lock(Domain::kCollect);
    locked_collect = true;
  }
  if (locked_collect) {
    // Index-based: arrange() charges and can yield, and a lazy connect on
    // another fiber may append gates mid-iteration (the Gates stay put, the
    // vector's iterators do not).
    for (std::size_t i = 0; i < ep.gates_.size(); ++i) {
      Gate& g = *ep.gates_[i];
      if (!g.has_outgoing()) continue;
      ctx.touch(g.out_line_);
      ep.strategy_.arrange(g, ep.rail_ptrs_, ctx, staged);
    }
    ep.locks_.unlock(Domain::kCollect);
  }

  return commit_staged(ep, staged, use_try) || !staged.empty();
}

bool Core::commit_staged(Endpoint& ep, std::vector<Strategy::Arranged>& staged,
                         bool use_try) {
  bool posted = false;
  // Execute rendezvous placements now, before any wire event can fire: the
  // modeled RDMA lands the bytes in the receiver's window so neither side
  // ever observes missing data. Host copy accounting for gathered chunks
  // also lands here (the strategy counted, we publish).
  for (auto& a : staged) {
    if (!a.pkt.placements.empty()) {
      std::uint64_t placed = 0;
      for (const RdvPlacement& pl : a.pkt.placements) {
        pl.dst->copy_in(pl.msg_off, pl.src, pl.len);
        placed += pl.len;
      }
      m_placed_bytes_.inc(placed);
      a.pkt.placements.clear();
    }
    if (a.pkt.gathered_bytes > 0) {
      m_bytes_copied_.inc(a.pkt.gathered_bytes);
      m_copies_.inc(a.pkt.gathered_chunks);
    }
  }
  if (flow_ != nullptr && !staged.empty()) {
    const sim::Time now = engine().now();
    const int core = current_core();
    for (const auto& a : staged) {
      for (Request* r : a.pkt.accounted) {
        if (r->flow_id_ != 0) {
          flow_->stamp(r->flow_id_, obs::FlowStage::kArrange, now, node_id_,
                       core);
        }
      }
    }
  }
  auto completer = [this](std::vector<Request*> reqs) {
    on_chunks_wire_done(reqs);
  };
  for (int r = 0; r < num_rails(); ++r) {
    Driver& drv = *ep.drivers_[static_cast<std::size_t>(r)];
    const bool has_commits =
        std::any_of(staged.begin(), staged.end(),
                    [r](const auto& a) { return a.rail == r; });
    if (!has_commits && !drv.has_pending()) continue;
    const Domain d = ep.locks_.driver_domain(r);
    if (use_try) {
      if (!ep.locks_.try_lock(d)) {
        // Staged packets for this rail must not be lost: nobody else can
        // be arranging (we popped the wrappers), so append without the
        // lock -- cost model only, host-safe -- and let a later pass drain.
        for (auto& a : staged) {
          if (a.rail == r) drv.commit(std::move(a.pkt));
        }
        mark_active(ep);
        continue;
      }
    } else {
      ep.locks_.lock(d);
    }
    SIMSAN_ACCESS(drv.san_xfer());
    for (auto& a : staged) {
      if (a.rail == r) drv.commit(std::move(a.pkt));
    }
    // Marked before the drain: its post charges, and packets still pending
    // must stay visible to passes that run meanwhile.
    mark_active(ep);
    posted |= drv.drain(completer) > 0;
    ep.locks_.unlock(d);
  }
  return posted;
}

bool Core::pump_step(mth::ExecContext& ctx, bool use_try) {
  // Classic single-instance pump: endpoint 0 owns every packet.
  Endpoint& ep = *eps_[0];
  bool any = false;
  auto completer = [this](std::vector<Request*> reqs) {
    on_chunks_wire_done(reqs);
  };
  if (!use_try) {
    // Blocking path: never hold two domains at once. Up to four packets per
    // rail wait here between the two: on this fiber's stack, since a charge
    // in the pass can switch to another fiber running the same pass.
    std::array<std::pair<int, net::Packet>, 4 * kMaxRails> received;
    std::size_t count = 0;
    for (int r = 0; r < num_rails(); ++r) {
      Driver& d = *ep.drivers_[static_cast<std::size_t>(r)];
      if (!d.has_pending() && !d.nic().rx_pending()) {
        // Doorbell peek: an empty completion queue is detected with a
        // plain (priced) read, no lock needed -- idle polling passes cost
        // the same under every locking mode.
        d.nic().poll();
        continue;
      }
      ep.locks_.lock(ep.locks_.driver_domain(r));
      SIMSAN_ACCESS(d.san_xfer());
      d.drain(completer);
      for (int k = 0; k < 4; ++k) {
        auto pkt = d.nic().poll();
        if (!pkt) break;
        received[count++] = {r, std::move(*pkt)};
      }
      ep.locks_.unlock(ep.locks_.driver_domain(r));
    }
    if (count > 0) {
      any = true;
      ep.locks_.lock(Domain::kMatching);
      for (std::size_t i = 0; i < count; ++i) {
        process_packet_locked(ctx, ep, received[i].first, received[i].second);
      }
      ep.locks_.unlock(Domain::kMatching);
    }
    return any;
  }

  // Hook path: nested try-locks (deadlock-free) so no packet is popped
  // unless it can be processed.
  for (int r = 0; r < num_rails(); ++r) {
    Driver& d = *ep.drivers_[static_cast<std::size_t>(r)];
    if (!d.has_pending() && !d.nic().rx_pending()) {
      d.nic().poll();  // doorbell peek (see blocking path)
      continue;
    }
    if (!ep.locks_.try_lock(ep.locks_.driver_domain(r))) continue;
    SIMSAN_ACCESS(d.san_xfer());
    d.drain(completer);
    int budget = 4;
    while (budget-- > 0 && d.nic().rx_pending()) {
      if (!ep.locks_.try_lock(Domain::kMatching)) break;
      auto pkt = d.nic().poll();
      if (pkt) {
        process_packet_locked(ctx, ep, r, *pkt);
        any = true;
      }
      ep.locks_.unlock(Domain::kMatching);
    }
    ep.locks_.unlock(ep.locks_.driver_domain(r));
  }
  return any;
}

bool Core::drain_rails(mth::ExecContext& ctx, int own_ep, bool use_try) {
  bool any = false;
  auto completer = [this](std::vector<Request*> reqs) {
    on_chunks_wire_done(reqs);
  };
  // Per-endpoint transfer lists: drain tx completions and pending commits.
  // A driver with pending packets has its endpoint's active bit set.
  for (int e = active_eps_.next(0); e >= 0; e = active_eps_.next(e + 1)) {
    Endpoint& ep = *eps_[static_cast<std::size_t>(e)];
    const bool steal = use_try && e != own_ep;
    for (int r = 0; r < num_rails(); ++r) {
      Driver& d = *ep.drivers_[static_cast<std::size_t>(r)];
      if (!d.has_pending()) continue;
      const Domain dom = ep.locks_.driver_domain(r);
      if (!steal) {
        ep.locks_.lock(dom);
      } else if (!ep.locks_.try_lock(dom)) {
        continue;
      }
      SIMSAN_ACCESS(d.san_xfer());
      const bool adv = d.drain(completer) > 0;
      ep.locks_.unlock(dom);
      if (adv && steal) ep.m_steals_.inc();
      any |= adv;
    }
  }
  // Receive side: the M rings of each rail, the own ring first, then any
  // other raised doorbell in ascending order (helping keeps wildcard
  // matches and stalled peers live when only one context polls). Polling
  // needs no endpoint lock: the rx doorbell is atomic MMIO (see
  // endpoint.hpp), and Nic::poll claims a packet before charging it.
  const int nq = rx_rings_;
  const int own_q = own_ep >= 0 ? own_ep % nq : -1;
  for (int r = 0; r < num_rails(); ++r) {
    net::Nic& nic = *nics_[static_cast<std::size_t>(r)];
    // Ring guard (see core.hpp): one drainer per ring at a time, and a pass
    // that finds the ring taken moves on -- it is being drained. At M = 1
    // the guard is the priced rx try-lock, the single-queue contention
    // model; at M > 1 the unpriced ownership flag.
    sync::SpinLock* rx_lock =
        nq == 1 ? nic_rx_locks_[static_cast<std::size_t>(r)].get() : nullptr;
    std::uint8_t* busy =
        nq > 1 ? mq_ring_busy_[static_cast<std::size_t>(r)].data() : nullptr;
    bool any_pending = false;
    // Drains ring q, whose doorbell is up.
    auto drain_ring = [&](int q) {
      any_pending = true;
      if (rx_lock != nullptr) {
        if (!rx_lock->try_lock()) return;
      } else {
        if (busy[q]) return;
        busy[q] = 1;
      }
      for (int k = 0; k < 4; ++k) {
        auto pkt = nic.poll(q);
        if (!pkt) break;
        // Dispatch to the owning endpoint's matching, or park the packet
        // for that endpoint's next pass when a try pass cannot take its
        // lock. FIFO per endpoint: once packets are parked for e, later
        // arrivals queue behind them or matching would observe reordering.
        const int e =
            static_cast<int>(peek_packet_ep(pkt->payload)) % num_eps_;
        Endpoint& ep = *eps_[static_cast<std::size_t>(e)];
        auto& parked = ep.parked_rx_;
        const bool steal = use_try && e != own_ep;
        bool locked = false;
        if (parked.empty()) {
          if (!steal) {
            ep.locks_.lock(Domain::kMatching);
            locked = true;
          } else {
            locked = ep.locks_.try_lock(Domain::kMatching);
          }
        }
        if (!locked) {
          const bool leaf = park_lock_->try_lock();
          if (leaf) SIMSAN_ACCESS(san_parked_);
          parked.emplace_back(r, std::move(*pkt));
          mark_active(ep);
          if (leaf) park_lock_->unlock();
          continue;
        }
        process_packet_locked(ctx, ep, r, *pkt);
        ep.locks_.unlock(Domain::kMatching);
        if (steal) ep.m_steals_.inc();
        any = true;
      }
      if (rx_lock != nullptr) {
        rx_lock->unlock();
      } else {
        busy[q] = 0;
      }
    };
    // Unpriced doorbell peeks. The single queue peeks the whole NIC, which
    // still sees a packet another fiber has claimed and is mid-charge on;
    // M > 1 reads the raised-ring mask and skips every lowered ring.
    if (nq == 1) {
      if (nic.rx_pending()) drain_ring(0);
    } else {
      if (own_q >= 0 && nic.rx_pending(own_q)) drain_ring(own_q);
      for (int q = nic.next_raised(0); q >= 0; q = nic.next_raised(q + 1)) {
        if (q != own_q) drain_ring(q);
      }
    }
    // All doorbells down: one priced empty poll on the own ring, the
    // single-endpoint pump's idle-pass cost.
    if (!any_pending) nic.poll(own_q >= 0 ? own_q : 0);
  }
  return any;
}

bool Core::drain_parked(mth::ExecContext& ctx, Endpoint& ep, bool use_try) {
  auto& q = ep.parked_rx_;
  if (q.empty()) return false;  // unpriced host peek
  if (use_try) {
    if (!ep.locks_.try_lock(Domain::kMatching)) return false;
  } else {
    ep.locks_.lock(Domain::kMatching);
  }
  std::vector<std::pair<int, net::Packet>> local;
  {
    const bool locked = park_lock_->try_lock();
    if (locked) SIMSAN_ACCESS(san_parked_);
    local.swap(q);
    if (locked) park_lock_->unlock();
  }
  for (auto& [r, pkt] : local) process_packet_locked(ctx, ep, r, pkt);
  ep.locks_.unlock(Domain::kMatching);
  return !local.empty();
}

// --------------------------------------------------------------------------
// Receive path (caller holds the endpoint's matching domain)
// --------------------------------------------------------------------------

void Core::process_packet_locked(mth::ExecContext& ctx, Endpoint& ep, int rail,
                                 const net::Packet& pkt) {
  m_packets_rx_.add_always();
  auto& map = ep.src_to_gate_.at(static_cast<std::size_t>(rail));
  auto gi = map.find(pkt.src_port);
  Gate* gate = gi == map.end() ? nullptr : gi->second;
  if (gate == nullptr) {
    // First packet from a peer we never sent to: materialize its gates on
    // demand (attach order guarantees peer node == src fabric port). No
    // virtual time is charged -- a real rx-side connection setup is
    // control-plane work off the data path.
    if (pkt.src_port >= 0) {
      connect(pkt.src_port,
              std::vector<int>(static_cast<std::size_t>(num_rails()),
                               pkt.src_port));
      gi = map.find(pkt.src_port);
      gate = gi == map.end() ? nullptr : gi->second;
    }
    if (gate == nullptr) {
      m_rx_rejected_.inc();
      return;
    }
  }
  SIMSAN_ACCESS(gate->san_matching_);
  PacketReader reader(pkt.payload);
  const net::SlabRef* backing = pkt.payload.data_slab();
  const std::uint8_t* data = nullptr;
  void* note = nullptr;
  while (auto h = reader.next(&data, &note)) {
    m_chunks_rx_.add_always();
    handle_chunk_locked(ctx, ep, rail, *gate, *h, data, note, backing);
  }
  if (!reader.ok()) m_rx_rejected_.inc();
}

void Core::handle_chunk_locked(mth::ExecContext& ctx, Endpoint& ep, int rail,
                               Gate& gate, const ChunkHeader& h,
                               const std::uint8_t* data, void* note,
                               const net::SlabRef* backing) {
  switch (h.kind) {
    case ChunkKind::kCts: {
      // Sender side: rendezvous granted; queue the bulk data. The CTS note
      // carries the receiving request -- the advertised memory window --
      // so the data chunks can be *placed* with zero host copies.
      auto it = ep.send_by_cookie_.find(h.cookie);
      if (it == ep.send_by_cookie_.end() || it->second->rdv_granted_) {
        m_rx_rejected_.inc();  // no send is waiting for this grant
        return;
      }
      Request* req = it->second;
      req->rdv_granted_ = true;
      m_rdv_handshakes_.add_always();
      PackWrapper pw;
      pw.kind = PackWrapper::Kind::kRdvData;
      pw.req = req;
      pw.tag = req->tag_;
      pw.msg_seq = req->msg_seq_;
      pw.data = req->send_data_;
      pw.len = req->total_len_;
      pw.cookie = req->id_;
      pw.rdv_window = static_cast<Request*>(note);
      SIMSAN_ACCESS(ep.san_deferred_);
      ep.deferred_pws_.emplace_back(req->gate_, pw);
      ep.resubmit_hint_ = true;
      mark_active(ep);
      return;
    }
    case ChunkKind::kRts: {
      // Receiver side: a rendezvous announcement matches like a message.
      // The packer schedules RTS chunks ahead of queued eager data, so an
      // RTS can physically overtake earlier messages of its own channel;
      // matching stays in channel order by stashing such an early RTS
      // until the messages before it have matched.
      if (h.msg_seq > gate.next_match_seq_) {
        Gate::EarlyRts early;
        early.tag = h.tag;
        early.total_len = h.total_len;
        early.cookie = h.cookie;
        // A second RTS for a stashed msg_seq is dropped: replacing the
        // first would leave its sender waiting for a CTS forever.
        if (!gate.early_rts_.emplace(h.msg_seq, early).second) {
          m_rx_rejected_.inc();
        }
        return;
      }
      process_rts_locked(ep, gate, h.tag, h.msg_seq, h.total_len, h.cookie);
      bump_match_seq_locked(ep, gate, h.msg_seq);
      return;
    }
    case ChunkKind::kEager:
    case ChunkKind::kRdvData: {
      // The first chunk of a message to arrive matches and binds it; its
      // other chunks find the receive bound. A chunk must lie inside its
      // message and agree with the part already received; a malformed one
      // is dropped.
      if (std::uint64_t{h.offset} + h.chunk_len > h.total_len) {
        m_rx_rejected_.inc();
        return;
      }
      Request* req = gate.bound_recv(h.msg_seq);
      if (req != nullptr) {
        if (h.total_len != req->total_len_ ||
            h.chunk_len > req->total_len_ - req->filled_) {
          m_rx_rejected_.inc();
          return;
        }
      } else {
        req = match_posted_locked(ep, gate, h.tag);
        if (req != nullptr) {
          bind_locked(gate, req, h.tag, h.msg_seq, h.total_len);
        }
      }
      if (req != nullptr) {
        deliver_chunk_locked(ctx, rail, gate, req, h, data);
      } else if (!store_unexpected_locked(ctx, rail, gate, h, data, backing)) {
        return;
      }
      // An eager message counts as matched in channel order at its first
      // byte (rendezvous ones at their RTS).
      if (h.kind == ChunkKind::kEager && h.offset == 0) {
        bump_match_seq_locked(ep, gate, h.msg_seq);
      }
      return;
    }
  }
}

bool Core::store_unexpected_locked(mth::ExecContext& ctx, int rail,
                                   Gate& gate, const ChunkHeader& h,
                                   const std::uint8_t* data,
                                   const net::SlabRef* backing) {
  // Retain the chunk bytes without copying when the packet payload lives
  // in a pooled slab (segmented delivery) -- the piece shares the slab via
  // refcount. Flat payloads (raw injection) die with the packet, so those
  // bytes go into a fresh pooled slab.
  UnexpectedMsg* um = nullptr;
  for (auto& u : gate.unexpected_) {
    if (u.msg_seq == h.msg_seq) {
      um = &u;
      break;
    }
  }
  if (um == nullptr) {
    gate.unexpected_.emplace_back();
    um = &gate.unexpected_.back();
    um->tag = h.tag;
    um->msg_seq = h.msg_seq;
    um->total_len = h.total_len;
  } else if (um->is_rdv || h.total_len != um->total_len ||
             h.chunk_len > um->total_len - um->filled) {
    m_rx_rejected_.inc();
    return false;
  }
  if (h.chunk_len > 0) {
    assert(data != nullptr && "placed chunk arrived unexpected");
    assert(h.offset + h.chunk_len <= um->total_len);
    UnexpectedPiece piece;
    piece.offset = h.offset;
    piece.len = h.chunk_len;
    if (backing != nullptr) {
      piece.backing = *backing;  // handoff, no host copy
      piece.data = data;
    } else {
      piece.backing = net::BufferPool::global().acquire(h.chunk_len);
      std::memcpy(piece.backing.data(), data, h.chunk_len);
      piece.data = piece.backing.data();
      m_bytes_copied_.inc(h.chunk_len);
      m_copies_.inc();
    }
    um->pieces.push_back(std::move(piece));
    ctx.charge(net::byte_time(
        nics_[static_cast<std::size_t>(rail)]->params().rx_copy_per_byte,
        h.chunk_len));
  }
  um->filled += h.chunk_len;
  m_unexpected_chunks_.add_always();
  return true;
}

void Core::process_rts_locked(Endpoint& ep, Gate& gate, Tag tag,
                              std::uint32_t msg_seq, std::size_t total_len,
                              std::uint64_t cookie) {
  Request* req = match_posted_locked(ep, gate, tag);
  if (req != nullptr) {
    bind_locked(gate, req, tag, msg_seq, total_len);
    grant_rdv_locked(ep, gate, req, cookie);
    // This visit has flushed its deferred queue already: ask it to flush
    // and submit once more, so the CTS leaves in this pass.
    ep.resubmit_hint_ = true;
  } else {
    UnexpectedMsg um;
    um.tag = tag;
    um.msg_seq = msg_seq;
    um.total_len = total_len;
    um.is_rdv = true;
    um.rts_cookie = cookie;
    gate.unexpected_.push_back(std::move(um));
    m_unexpected_chunks_.add_always();
  }
}

void Core::bump_match_seq_locked(Endpoint& ep, Gate& gate,
                                 std::uint32_t msg_seq) {
  // Each stashed RTS that becomes matchable moves the cursor on and may
  // make the next one matchable: drain them in a loop, in msg_seq order,
  // so the stack depth does not grow with the stash.
  for (;;) {
    if (msg_seq == gate.next_match_seq_) {
      ++gate.next_match_seq_;
    } else if (msg_seq > gate.next_match_seq_) {
      // Cross-rail slip: a later eager physically arrived first. Adopt the
      // relaxed order rather than stalling the channel -- only RTS chunks
      // (which the packer reorders deliberately) are ever held back.
      gate.next_match_seq_ = msg_seq + 1;
    }
    if (gate.early_rts_.empty()) return;
    auto it = gate.early_rts_.begin();
    if (it->first > gate.next_match_seq_) return;
    const Gate::EarlyRts e = it->second;
    msg_seq = it->first;
    gate.early_rts_.erase(it);
    process_rts_locked(ep, gate, e.tag, msg_seq, e.total_len, e.cookie);
  }
}

void Core::deliver_chunk_locked(mth::ExecContext& ctx, int rail, Gate& gate,
                                Request* req, const ChunkHeader& h,
                                const std::uint8_t* data) {
  assert(req->seq_bound_ && req->msg_seq_ == h.msg_seq);
  if (flow_ != nullptr) {
    req->flow_id_ = obs::FlowTracer::flow_id(
        gate.peer_node(), node_id_, flow_seq(gate.endpoint(), h.msg_seq));
    flow_->stamp(req->flow_id_, obs::FlowStage::kDeliver, engine().now(),
                 node_id_, ctx.core());
  }
  if (h.chunk_len > 0) {
    assert(h.offset + h.chunk_len <= req->capacity_);
    // Placed chunks (data == nullptr) already landed in the window at
    // commit time -- zero host copies on this side. Everything else is
    // copied from the rx ring into the user buffer here.
    if (data != nullptr) {
      req->copy_in(h.offset, data, h.chunk_len);
      ++req->host_copies_;
      m_deliver_bytes_copied_.inc(h.chunk_len);
      m_bytes_copied_.inc(h.chunk_len);
      m_copies_.inc();
    }
    // Matched receives: small chunks are copied out of the rx ring; large
    // ones land in place by DMA and only pay completion handling. The
    // charge is taken either way (the DMA-completion model is unchanged).
    const auto& p = nics_[static_cast<std::size_t>(rail)]->params();
    ctx.charge(h.chunk_len <= p.pio_threshold
                   ? net::byte_time(p.rx_copy_per_byte, h.chunk_len)
                   : p.rx_match_cost);
  }
  req->filled_ += h.chunk_len;
  assert(req->filled_ <= req->total_len_);
  if (req->filled_ == req->total_len_) {
    gate.unbind_recv(h.msg_seq);
    complete_request(req);
  }
}

// --------------------------------------------------------------------------
// Dedicated progression thread(s) (Fig. 8)
// --------------------------------------------------------------------------

mth::Thread* Core::start_poll_thread() {
  assert(poll_thread_ == nullptr && "poll thread already running");
  poll_thread_stop_ = false;
  for (int e = 0; e < num_eps_; ++e) {
    Endpoint& ep = *eps_[static_cast<std::size_t>(e)];
    mth::ThreadAttrs attrs;
    attrs.name =
        e == 0 ? name_ + "-poll" : name_ + "-poll-ep" + std::to_string(e);
    attrs.bind_core = cfg_.poll_core;
    if (num_eps_ > 1) {
      // Each endpoint's progress fiber lives in its endpoint's engine
      // partition (ThreadAttrs::partition); the single-endpoint core keeps
      // the scheduler's default placement.
      attrs.partition = ep.home_partition_;
    }
    ep.poll_thread_ = sched_.spawn(
        [this, e] {
          auto& ctx = mth::ExecContext::current();
          // Own this endpoint (blocking), steal from the others (try). Every
          // pass consumes time, so the loop is paced.
          while (!poll_thread_stop_) progress_pass(ctx, e, /*use_try=*/true);
        },
        attrs);
  }
  poll_thread_ = eps_[0]->poll_thread_;
  return poll_thread_;
}

void Core::stop_poll_thread() {
  poll_thread_stop_ = true;
  poll_thread_ = nullptr;
  for (auto& ep : eps_) ep->poll_thread_ = nullptr;
}

}  // namespace pm2::nm
