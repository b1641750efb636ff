// pm2sim -- NewMadeleine core: the per-node communication library instance.
//
// Ties the three layers together (paper Fig. 1):
//   collect layer      -- isend/irecv stage work into per-gate lists;
//   optimization layer -- a Strategy arranges packets when NICs have room;
//   transfer layer     -- Drivers feed packets to NICs and poll them.
//
// Orthogonally configurable (nm::Config):
//   locking     none / coarse / fine                      (Sec. 3.1-3.2)
//   waiting     busy / passive / fixed-spin               (Sec. 3.3)
//   progression app-driven / PIOMan hooks / dedicated poll thread /
//               tasklet-offloaded submission / idle-core submission (Sec. 4)
//   endpoints   1 (the paper's shared instance) .. N scalable endpoints:
//               the whole collect/matching/transfer state is instantiated
//               per endpoint (see endpoint.hpp), sends and exact receives
//               route to endpoint tag % N, and progression steals work
//               across endpoints with try-locks.
//
// Progression is one pass (progress_pass), whichever context drives it: a
// wait, a PIOMan hook, the poll thread or the submit tasklet. It visits
// the endpoints whose bit is set in the active-endpoint bitmap, from a
// round-robin cursor, blocking on the endpoint the caller owns and
// try-locking the rest. The bit is set at every insertion into an
// endpoint's queues, before anything that can charge, and cleared only by
// a visit, at its end, after Endpoint::idle() re-checks every structure;
// so a skipped endpoint is one whose visit would do nothing. N = 1 and
// kCoarse visit every endpoint regardless, and leave the bits set: there
// an idle visit is priced (pump_step's doorbell poll, the foreign library
// try-lock). The single endpoint drains its rails inside that library
// visit (pump_step). With N > 1 endpoints one shared drain (drain_rails)
// then drains the tx lists of the active endpoints, walks the raised
// rings of each rail's doorbell mask, and hands every packet to its
// endpoint's matching, or parks it for the owner. Its ring guard is the
// priced rx try-lock at M = 1 -- the serialized single-queue drain -- and
// an unpriced ownership flag at M > 1.
//
// Locking discipline: a thread never holds two lock domains at once on the
// blocking paths (collect -> unlock -> driver -> unlock -> matching), which
// keeps the coarse mapping (every domain = one global lock) deadlock-free.
// Hook contexts use try-locks exclusively and may nest them (try-locks
// cannot deadlock); work that cannot be done under a failed try-lock is
// left queued for the next pass. With N > 1 endpoints, blocking locks are
// only ever taken on the endpoint a request owns; every foreign-endpoint
// access (work stealing, rx demultiplex) is try-lock-only, so no context
// can wait on two endpoints' locks at once.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nmad/driver.hpp"
#include "nmad/endpoint.hpp"
#include "nmad/gate.hpp"
#include "obs/metrics.hpp"
#include "nmad/locking.hpp"
#include "nmad/request.hpp"
#include "nmad/strategy.hpp"
#include "nmad/types.hpp"
#include "nmad/wire_format.hpp"
#include "pioman/server.hpp"
#include "pioman/tasklet.hpp"
#include "simcore/bitmap.hpp"
#include "simnet/nic.hpp"
#include "simthread/scheduler.hpp"
#include "sync/spinlock.hpp"

namespace pm2::obs {
class FlowTracer;
}

namespace pm2::nm {

class Core final : public piom::PollSource {
 public:
  /// @p endpoints in [1, 255] (ClusterConfig::endpoints); @p rx_queues >= 1
  /// RX rings per NIC (ClusterConfig::rx_queues), of which the core
  /// configures min(rx_queues, endpoints): ring `ep % M` never sees an
  /// endpoint id of N or more.
  Core(mth::Scheduler& sched, Config cfg, std::string name = "nm",
       int endpoints = 1, int rx_queues = 1);
  ~Core() override;

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  // --- world wiring ---------------------------------------------------------

  /// Attach one NIC as rail N (in call order). Every endpoint gets its own
  /// Driver (transfer list) over the shared NIC; returns endpoint 0's.
  Driver& add_rail(net::Nic& nic);

  /// Open a gate to @p peer_node; @p peer_ports gives, per rail, the peer's
  /// fabric port (which is also the src_port of its incoming packets).
  /// Every endpoint gets its own gate; the endpoint-0 gate is returned as
  /// the public handle (isend/irecv reroute by tag internally). Idempotent:
  /// reconnecting an already-connected peer returns the existing gate.
  Gate* connect(int peer_node, std::vector<int> peer_ports);

  /// Gate to @p peer_node, connecting lazily on first use: NIC attach order
  /// guarantees a node's fabric port equals its index on every rail, so no
  /// out-of-band port exchange is needed. O(active peers) state -- a
  /// 128-node world only ever holds gates for the pairs that talk.
  Gate* gate_to(int peer_node);

  /// Connected peers per endpoint (lazily-created gates currently live).
  int gate_count() const { return static_cast<int>(eps_[0]->gates_.size()); }

  /// Attach a PIOMan server; the core registers itself as a poll source.
  void attach_pioman(piom::Server* server);

  /// Attach a tasklet engine (required for ProgressMode::kTaskletOffload).
  void attach_tasklets(piom::TaskletEngine* engine);

  const Config& config() const { return cfg_; }
  mth::Scheduler& scheduler() const { return sched_; }
  sim::Engine& engine() const { return sched_.engine(); }
  const std::string& name() const { return name_; }
  int num_rails() const { return static_cast<int>(nics_.size()); }
  Driver& rail(int i) { return *eps_[0]->rail_ptrs_.at(static_cast<std::size_t>(i)); }
  LockSet& locks() { return eps_[0]->locks_; }

  int num_endpoints() const { return num_eps_; }
  Endpoint& endpoint(int i) { return *eps_.at(static_cast<std::size_t>(i)); }

  /// Endpoint a send / exact-tag receive with @p tag routes to.
  int endpoint_of(Tag tag) const {
    return num_eps_ > 1 ? static_cast<int>(tag % static_cast<Tag>(num_eps_))
                        : 0;
  }

  // --- data movement ----------------------------------------------------------

  /// Non-blocking send. The request completes once the message is on the
  /// wire (buffer reusable). @p data must stay valid until completion.
  Request* isend(Gate* gate, Tag tag, const void* data, std::size_t len);

  /// Non-blocking receive into @p buf (up to @p capacity bytes).
  Request* irecv(Gate* gate, Tag tag, void* buf, std::size_t capacity);

  /// Completion check (one priced flag read). Does not release.
  bool test(Request* req);

  /// Wait for completion using the configured WaitMode. Does not release,
  /// so received_length() stays queryable; call release() when done.
  void wait(Request* req);

  /// Return a completed request to the core.
  void release(Request* req);

  /// Blocking conveniences (isend/irecv + wait + release).
  void send(Gate* gate, Tag tag, const void* data, std::size_t len);
  std::size_t recv(Gate* gate, Tag tag, void* buf, std::size_t capacity);

  // --- progression -------------------------------------------------------------

  /// One full progression pass with blocking locks (thread context holding
  /// no endpoint lock).
  bool progress(mth::ExecContext& ctx);

  // PollSource interface (PIOMan): hook-safe passes, try-locks only.
  bool poll(mth::ExecContext& ctx) override;
  bool pending() const override;

  /// Spawn/stop the dedicated progression thread(s) (kPollThread) on
  /// config().poll_core. With N > 1 endpoints, one fiber per endpoint is
  /// spawned (each pinned to its endpoint's home partition); the first is
  /// returned.
  mth::Thread* start_poll_thread();
  void stop_poll_thread();

  // --- observability ---------------------------------------------------------

  /// Attach a flow tracer: every request is stamped with a flow id and its
  /// lifecycle stages are recorded (see obs::FlowStage). @p node_id labels
  /// this core's side of each flow; nullptr detaches.
  void set_flow_tracer(obs::FlowTracer* tracer, int node_id);

  /// Incomplete (not yet completed) requests.
  int active_requests() const { return active_reqs_; }

 private:
  // Submission pipeline (all endpoint-scoped).
  Request* launch_send(mth::ExecContext& ctx, Endpoint& ep, Request* req,
                       Gate* gate, Tag tag, std::size_t len);
  Request* launch_recv(mth::ExecContext& ctx, Endpoint& ep, Request* req,
                       Gate* gate, Tag tag);
  Request* launch_recv_wildcard(mth::ExecContext& ctx, Request* req,
                                Gate* gate);
  void kick_submission(mth::ExecContext& ctx, Endpoint& ep);
  bool flush_deferred(Endpoint& ep, bool use_try);
  bool submit_step(mth::ExecContext& ctx, Endpoint& ep, bool use_try);
  bool commit_staged(Endpoint& ep, std::vector<Strategy::Arranged>& staged,
                     bool use_try);
  /// The progression pass. Visits the endpoints whose active bit is set,
  /// from the round-robin cursor: blocking on @p own_ep (-1 = none) and,
  /// unless @p use_try, on every endpoint; try-lock stealing elsewhere.
  /// @p submission_only passes (offload tasklet, idle cores) flush and
  /// submit but drain nothing.
  bool progress_pass(mth::ExecContext& ctx, int own_ep, bool use_try,
                     bool submission_only = false);
  /// The one definition of an empty pass: true if a try pass by a context
  /// owning @p own_ep (-1 = none) would find nothing. Its unpriced peeks
  /// see no queued work and no packet, so all it would price is one empty
  /// NIC poll. Never true with more than one rail (the pass peeks rail r + 1
  /// after rail r's priced poll) or where the pass would lock or try-lock a
  /// library lock (kCoarse, unless N = 1 and this context holds it).
  bool pass_is_empty(int own_ep) const;
  /// Record what an empty try pass records (progress_passes; at N > 1 the
  /// round-robin cursor and next_visit's walk, with its simsan check; the
  /// NIC's empty poll, whichever ring it polls) and return its price.
  sim::Time record_empty_pass();
  /// Core::wait's busy loop between two non-empty iterations, as steps.
  class BusySteps;
  /// Single-endpoint rail drain, run inside the library visit.
  bool pump_step(mth::ExecContext& ctx, bool use_try);
  /// Multi-endpoint rail drain: tx completions of the active endpoints,
  /// then the M rings of each rail -- own ring first, then the raised
  /// doorbells in ascending order -- with each packet dispatched to its
  /// endpoint's matching or parked.
  bool drain_rails(mth::ExecContext& ctx, int own_ep, bool use_try);
  bool drain_parked(mth::ExecContext& ctx, Endpoint& ep, bool use_try);
  void process_packet_locked(mth::ExecContext& ctx, Endpoint& ep, int rail,
                             const net::Packet& pkt);
  void handle_chunk_locked(mth::ExecContext& ctx, Endpoint& ep, int rail,
                           Gate& gate, const ChunkHeader& h,
                           const std::uint8_t* data, void* note,
                           const net::SlabRef* backing);
  void deliver_chunk_locked(mth::ExecContext& ctx, int rail, Gate& gate,
                            Request* req, const ChunkHeader& h,
                            const std::uint8_t* data);
  /// Keep an eager chunk no posted receive matched, for a later irecv.
  /// Returns false (and counts an rx reject) if the chunk disagrees with
  /// the part of its message already stored.
  bool store_unexpected_locked(mth::ExecContext& ctx, int rail, Gate& gate,
                               const ChunkHeader& h, const std::uint8_t* data,
                               const net::SlabRef* backing);
  /// RTS body of handle_chunk_locked, shared with the early-RTS stash
  /// drain: match a posted receive and grant it, or keep the RTS as an
  /// unexpected rendezvous message. The caller moves the match cursor.
  void process_rts_locked(Endpoint& ep, Gate& gate, Tag tag,
                          std::uint32_t msg_seq, std::size_t total_len,
                          std::uint64_t cookie);
  /// Advance the channel match cursor past @p msg_seq and drain, in a
  /// loop, every stashed RTS that became matchable (caller holds the
  /// matching lock).
  void bump_match_seq_locked(Endpoint& ep, Gate& gate, std::uint32_t msg_seq);
  /// Adopt the earliest matching unexpected message into @p req (caller
  /// holds @p ep's matching lock). Returns false if nothing matched;
  /// *adopted_rdv is set when a deferred CTS was queued.
  bool adopt_unexpected_locked(mth::ExecContext& ctx, Endpoint& ep,
                               Gate& gate, Request* req, Tag tag,
                               bool* adopted_rdv);
  /// The receive an arriving message with @p tag matches: the first posted
  /// receive of @p gate for that tag, else (N > 1) a parked wildcard.
  /// Removed from its list; null if none (caller holds the matching lock).
  Request* match_posted_locked(Endpoint& ep, Gate& gate, Tag tag);
  /// Bind @p req to wire message @p msg_seq of @p gate: record what it
  /// matched and enter it in the gate's bound receives. Throws if the
  /// message does not fit the receive buffer.
  void bind_locked(Gate& gate, Request* req, Tag tag, std::uint32_t msg_seq,
                   std::size_t total_len);
  /// Queue the CTS granting rendezvous @p cookie into the window of the
  /// bound receive @p req.
  void grant_rdv_locked(Endpoint& ep, Gate& gate, Request* req,
                        std::uint64_t cookie);
  /// Claim a parked wildcard receive for @p gate's peer (caller holds the
  /// endpoint's matching lock; multi-endpoint mode only).
  Request* claim_wildcard_locked(const Gate& gate);
  void complete_request(Request* req);
  void on_chunks_wire_done(const std::vector<Request*>& reqs);
  bool has_submission_work() const;
  void mark_active(const Endpoint& ep) { active_eps_.set(ep.id_); }
  /// First endpoint in [@p from, @p end) whose active bit is set (@p end if
  /// none). Under simsan, checks that every endpoint it skips is idle.
  int next_visit(int from, int end) const;

  /// Flow-trace sequence: the endpoint id is folded into the high bits at
  /// N > 1 (mirroring the wire encoding) so flows on different endpoints
  /// of one gate never collide. Identity at endpoint 0.
  static std::uint32_t flow_seq(int ep, std::uint32_t seq) {
    return (static_cast<std::uint32_t>(ep) << 24) | seq;
  }

  /// The endpoint-@p e gate for the peer of @p gate (any endpoint's gate
  /// accepted as the public handle).
  Gate* gate_on(int e, Gate* gate) const;

  Request* alloc_request();

  mth::Scheduler& sched_;
  Config cfg_;
  std::string name_;
  int num_eps_ = 1;
  int rx_rings_ = 1;  ///< RX rings per NIC: min(rx_queues, endpoints)
  int home_partition_ = 0;

  std::vector<std::unique_ptr<Endpoint>> eps_;
  std::vector<net::Nic*> nics_;  ///< rails, shared by all endpoints

  piom::Server* pioman_ = nullptr;
  piom::TaskletEngine* tasklets_ = nullptr;
  std::unique_ptr<piom::Tasklet> submit_tasklet_;

  // --- multi-endpoint shared state (constructed only at N > 1) -------------
  // The two leaf locks below are only ever try-locked: one RMW, legal from
  // any execution context. On failure the caller mutates without the lock
  // -- host-safe, like the contended fallback in flush_deferred: host
  // execution is single-threaded per partition, the locks model cost, not
  // safety.
  /// Wildcard (kAnyTag) receives at N > 1 cannot hash to an endpoint; they
  /// park here and are claimed by whichever endpoint's matching pass first
  /// sees an otherwise-unmatched message for their gate. Lock order:
  /// matching -> wildcard (never the reverse).
  std::unique_ptr<sync::SpinLock> wildcard_lock_;
  std::deque<Request*> wildcard_recvs_;
  san::Shared san_wildcard_{"nm.wildcard"};
  /// Guards every endpoint's parked-RX queue (Endpoint::parked_rx_):
  /// packets polled off a shared NIC but owned by an endpoint whose
  /// matching lock a try-pass could not take. Leaf lock (taken with no
  /// other domain held, or under a matching lock).
  std::unique_ptr<sync::SpinLock> park_lock_;
  san::Shared san_parked_{"nm.rxpark"};
  /// drain_rails' ring guard at M = 1: one poller at a time per shared
  /// single-queue NIC completion queue (N > 1 endpoints with one ring
  /// only). Nic::poll claims the packet before charging (fiber-atomic), so
  /// the lock is not a correctness requirement -- it stays, priced, because
  /// the serialized drain *is* the single-queue contention model (and keeps
  /// historical schedules byte-identical).
  std::vector<std::unique_ptr<sync::SpinLock>> nic_rx_locks_;
  /// drain_rails' ring guard at M > 1: a per-(rail, ring) drain-ownership
  /// flag. Not a lock: never blocked on, never priced. A context that finds
  /// the flag up skips the ring -- its owner is mid-drain. Needed because a
  /// poll charge yields the claiming fiber: without the flag a helper could
  /// claim seq N and yield while the ring's owner claims and *processes*
  /// seq N+1 first, breaking per-endpoint matching FIFO (claims are atomic,
  /// processing order is not). Plain bytes suffice: a node's fibers share
  /// one worker.
  std::vector<std::vector<std::uint8_t>> mq_ring_busy_;
  int rr_ = 0;  ///< deterministic round-robin progression cursor
  /// Endpoints with queued work, one bit each. Set at every insertion into
  /// a deferred queue, gate ctrl/out list, driver pending list or parked-RX
  /// queue, before anything that can charge; cleared only at the end of a
  /// progression visit that finds Endpoint::idle(). So at every yield
  /// point a clear bit is an idle endpoint, and progression skips it.
  sim::Bitmap active_eps_;

  std::vector<std::unique_ptr<Request>> req_pool_;
  std::vector<Request*> free_reqs_;
  std::uint64_t next_req_id_ = 1;
  int active_reqs_ = 0;

  bool poll_thread_stop_ = false;
  mth::Thread* poll_thread_ = nullptr;

  // Traffic counters, labeled (nmad, <machine>). Always on (add_always):
  // they count whether or not the registry is enabled.
  obs::Counter m_sends_;
  obs::Counter m_recvs_;
  obs::Counter m_packets_rx_;
  obs::Counter m_chunks_rx_;
  obs::Counter m_unexpected_chunks_;
  obs::Counter m_rdv_handshakes_;
  obs::Counter m_progress_passes_;
  /// Input dropped on receive: a packet from an unknown source port or
  /// with a malformed payload, a data chunk that overruns or contradicts
  /// its message, or a CTS no waiting send asked for. Registry-gated, like
  /// the data-path counters below.
  obs::Counter m_rx_rejected_;

  // Data-path copy observability (registry-gated; zero cost when the
  // registry is disabled). "Copies" are host memcpys of payload bytes --
  // placements are the modeled DMA and counted separately.
  obs::Counter m_bytes_copied_;
  obs::Counter m_copies_;
  obs::Counter m_deliver_bytes_copied_;  ///< matched delivery memcpys
  obs::Counter m_adopt_bytes_copied_;    ///< unexpected -> user adoption
  obs::Counter m_placed_bytes_;          ///< landed with zero host copies
  obs::HistogramMetric m_copies_per_msg_;

  obs::FlowTracer* flow_ = nullptr;
  int node_id_ = -1;  ///< flow-trace label for this core's side
};

}  // namespace pm2::nm
