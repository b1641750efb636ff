#include "simthread/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace_log.hpp"
#include "simexplore/ctl.hpp"
#include "simsan/context.hpp"

namespace pm2::mth {

const char* to_string(ThreadState s) {
  switch (s) {
    case ThreadState::kReady: return "ready";
    case ThreadState::kRunning: return "running";
    case ThreadState::kBlocked: return "blocked";
    case ThreadState::kSleeping: return "sleeping";
    case ThreadState::kFinished: return "finished";
  }
  return "?";
}

ExecContext::~ExecContext() = default;
thread_local constinit ExecContext* ExecContext::current_ = nullptr;

namespace {
/// The thread whose fiber holds this host thread: set by resume_fiber,
/// moved by each charge that hands the host thread on, and read when
/// control is back on the engine stack. See PM2SIM_TLS_FAST in
/// simcore/partition.hpp: written from fiber stacks.
PM2SIM_TLS_FAST thread_local constinit Thread* tls_fiber_thread = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Thread / ThreadContext
// ---------------------------------------------------------------------------

Thread::Thread(Scheduler& sched, std::uint64_t id, ThreadFunc body,
               ThreadAttrs attrs)
    : sched_(sched),
      id_(id),
      attrs_(std::move(attrs)),
      fiber_(std::move(body), attrs_.stack_size),
      ctx_(*this) {}

void ThreadContext::charge(sim::Time t) {
  thread_.sched_.charge_current(t);
}

int ThreadContext::core() const { return thread_.core_; }

mach::Machine& ThreadContext::machine() const {
  return thread_.sched_.machine();
}

Scheduler& ThreadContext::scheduler() const { return thread_.sched_; }

// ---------------------------------------------------------------------------
// SpinGroup
// ---------------------------------------------------------------------------

/// The spinning threads of one engine partition, of every node that lives
/// there, and the proof that their steps repeat (Scheduler::spin).
///
/// A checkpoint is a moment when a spinner's next step is the next thing the
/// partition runs: its step event was taken, or its last charge advanced the
/// clock in place. The configuration there is each spinner's next step time
/// less now, its phase, and the order of the pending steps. The group keeps
/// one checkpoint's configuration, taken at a spinner's (the reference's)
/// checkpoint. When the reference reaches its phase again, one period P
/// later, the period is steady if
///   - nothing else ran: the engine counted no event but the steps seen,
///     and its queue epoch did not change (no loop or window started, no
///     cancelled entry left the queue);
///   - no cache line moved: each spinner's node counted no transfer;
///   - each spinner completed exactly one cycle, and the configuration is
///     the same.
/// Then each later period repeats the same steps in the same order, the
/// same ones in place and the same ones as events, for as long as nothing
/// else is due within what a period reaches (Engine::repeat_limit), no
/// step reaches a time-based hand-back and the loop goes on. The k whole
/// periods that fit are applied at once: each spinner's cycles, k·P of
/// charges per spinner, the clock and every pending step k·P later, and the
/// period's events counted k times.
class SpinGroup final : public sim::Engine::PartitionLocal {
 public:
  explicit SpinGroup(sim::Engine& engine)
      : engine_(engine), partition_(engine.current_partition()) {}

  /// The calling partition's group.
  static SpinGroup& of(sim::Engine& engine) {
    auto& local = engine.partition_local();
    if (local == nullptr) local = std::make_unique<SpinGroup>(engine);
    return static_cast<SpinGroup&>(*local);
  }

  void join(Scheduler& sched, Thread* t, SpinSteps& steps) {
    members_.push_back(Member{&sched, t, &steps, 0, 0, 0, {}});
    steps.group_ = this;
    armed_ = false;
  }

  void leave(SpinSteps& steps) {
    std::erase_if(members_,
                  [&steps](const Member& m) { return m.steps == &steps; });
    steps.group_ = nullptr;
    armed_ = false;
  }

  /// @p steps' step event was taken to run now.
  void taken(SpinSteps& steps) {
    ++taken_;
    checkpoint(steps);
  }

  /// @p steps' next step runs now, before anything else.
  void checkpoint(SpinSteps& steps) {
    if (!armed_ || !quiet()) {
      arm(steps);
    } else if (&steps == ref_ && steps.phase_ == ref_phase_) {
      at_period_end(steps);
    }
  }

 private:
  struct Member {
    Scheduler* sched;
    Thread* t;
    SpinSteps* steps;
    // At the kept checkpoint:
    sim::Time rel = 0;  ///< next step's time less the checkpoint's
    int phase = 0;
    std::uint64_t cycles = 0;
    sim::EventHandle next;  ///< pending next step (ties run in its order)
  };

  std::uint64_t executed() const {
    return engine_.partition_events_executed(partition_);
  }

  /// Nothing but the steps seen ran since the kept checkpoint, and nothing
  /// else left the queue or came into it.
  bool quiet() const {
    return executed() == executed_ + taken_ &&
           engine_.queue_epoch(partition_) == epoch_;
  }

  std::uint64_t transfers() const {
    std::uint64_t n = 0;
    for (const Member& m : members_) n += m.sched->machine().line_transfers();
    return n;
  }

  /// Keep the checkpoint of @p due, whose step runs now.
  void arm(SpinSteps& due) {
    ref_ = &due;
    ref_phase_ = due.phase_;
    epoch_ = engine_.queue_epoch(partition_);
    transfers_ = transfers();
    const sim::Time now = engine_.now();
    for (Member& m : members_) {
      m.rel = m.steps == &due ? 0 : m.steps->pending_at_ - now;
      m.phase = m.steps->phase_;
      m.cycles = m.steps->cycles_;
      m.next = m.steps->pending_;
    }
    restart();
    armed_ = true;
  }

  void restart() {
    start_ = engine_.now();
    executed_ = executed();
    taken_ = 0;
  }

  /// True if, at @p due's checkpoint, each spinner is one cycle on from the
  /// kept checkpoint in the same configuration; keeps this one instead.
  bool one_cycle_on(const SpinSteps& due) {
    const sim::Time now = engine_.now();
    bool same = true;
    for (Member& m : members_) {
      const sim::Time rel = m.steps == &due ? 0 : m.steps->pending_at_ - now;
      same = same && rel == m.rel && m.steps->phase_ == m.phase &&
             m.steps->cycles_ == m.cycles + 1;
      m.rel = rel;
      m.phase = m.steps->phase_;
      m.cycles = m.steps->cycles_;
    }
    // Pending steps due at one time run in the order they were scheduled.
    for (const Member& a : members_) {
      for (const Member& b : members_) {
        if (same && &a != &b && a.rel == b.rel && a.steps != &due &&
            b.steps != &due &&
            a.next.scheduled_before(b.next) !=
                a.steps->pending_.scheduled_before(b.steps->pending_)) {
          same = false;
        }
      }
    }
    for (Member& m : members_) m.next = m.steps->pending_;
    return same;
  }

  /// The reference @p due is back in its phase: a period ended.
  void at_period_end(SpinSteps& due) {
    if (transfers() != transfers_) {
      arm(due);
      return;
    }
    const std::uint64_t events = taken_;
    const sim::Time now = engine_.now();
    const sim::Time period = now - start_;
    const bool steady = one_cycle_on(due) && period > 0;
    restart();
    if (!steady) return;
    sim::Time reach = 0;  // of a period, past its end
    sim::Time hand_back = sim::kTimeInfinity;
    for (const Member& m : members_) {
      reach = std::max(reach, m.rel);
      hand_back = std::min(hand_back, m.steps->hand_back_time());
    }
    // k periods run every step, and end every charge, before now + k P +
    // reach: that must stay before the earliest hand-back time and within
    // the limit, as the verified period's did.
    if (hand_back - 1 - now - reach < period) return;
    pending_.clear();
    for (const Member& m : members_) {
      if (m.steps != &due) pending_.push_back(m.steps->pending_);
    }
    const sim::Time limit = engine_.repeat_limit(pending_);
    // A spin that nothing bounds never ends either way: leave it to run.
    if (std::min(limit, hand_back) == sim::kTimeInfinity) return;
    const sim::Time k =
        (std::min(hand_back - 1, limit) - now - reach) / period;
    if (k <= 0) return;
    const sim::Time span = k * period;
    for (Member& m : members_) {
      m.sched->skip_cycles(m.t, *m.steps, static_cast<std::uint64_t>(k), span);
      m.cycles = m.steps->cycles_;
      if (m.steps != &due) m.steps->pending_at_ += span;
    }
    engine_.skip_ahead(pending_, span, static_cast<std::uint64_t>(k) * events);
    restart();
  }

  sim::Engine& engine_;
  const int partition_;
  std::vector<Member> members_;
  std::vector<sim::EventHandle> pending_;  ///< members' next steps, reused
  bool armed_ = false;
  SpinSteps* ref_ = nullptr;
  int ref_phase_ = 0;
  sim::Time start_ = 0;          ///< the kept checkpoint's time
  std::uint64_t executed_ = 0;   ///< partition events executed there
  std::uint64_t taken_ = 0;      ///< step events taken since
  std::uint64_t epoch_ = 0;      ///< Engine::queue_epoch() when armed
  std::uint64_t transfers_ = 0;  ///< members' nodes' line transfers then
};

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

Scheduler::Scheduler(mach::Machine& machine) : machine_(machine) {
  home_partition_ = machine.engine().current_partition();
  cores_.resize(static_cast<std::size_t>(machine.num_cores()));
  auto& reg = obs::MetricsRegistry::global();
  const std::string& node = machine.name();
  for (int i = 0; i < machine.num_cores(); ++i) {
    Core& c = cores_[static_cast<std::size_t>(i)];
    c.id = i;
    c.m_switches = reg.counter({"sched", node, i, "context_switches"});
    c.m_idle_hook_runs = reg.counter({"sched", node, i, "idle_hook_runs"});
    c.m_switch_hook_runs = reg.counter({"sched", node, i, "switch_hook_runs"});
    c.m_timer_hook_runs = reg.counter({"sched", node, i, "timer_hook_runs"});
  }
}

Scheduler::~Scheduler() = default;

Thread* Scheduler::spawn(ThreadFunc body, ThreadAttrs attrs) {
  if (attrs.bind_core >= num_cores()) {
    throw std::out_of_range("Scheduler::spawn: bind_core out of range");
  }
  // Direct calls from the setup thread (e.g. Core::start_poll_thread)
  // otherwise inherit the caller's partition; the new thread and its
  // analyzer registration must live where this node lives -- or, when the
  // attrs carry an explicit partition (per-endpoint progress fibers),
  // where that endpoint lives.
  const int target_partition =
      attrs.partition >= 0 ? attrs.partition : home_partition_;
  if (target_partition >= std::max(1, engine().num_partitions())) {
    throw std::out_of_range("Scheduler::spawn: partition out of range");
  }
  sim::Engine::PartitionScope scope(engine(), target_partition);
  auto owned = std::make_unique<Thread>(*this, next_thread_id_++,
                                        std::move(body), std::move(attrs));
  Thread* t = owned.get();
  threads_.push_back(std::move(owned));
  ++live_threads_;
  if (running_ != nullptr && Fiber::current() != nullptr) {
    charge_current(costs().thread_spawn);
  }
  if (san::on()) {
    // Everything the spawner did so far happens-before the child's body.
    san::Analyzer::global().on_wake(san::current_actor(),
                                    san::actor_of(t->ctx_));
  }
  enqueue(choose_core(t), t);
  // Idle cores may have had no reason to run their hooks while the world
  // was empty; with a live thread the hook sources may now have work.
  notify_idle_work();
  return t;
}

void Scheduler::unwind_threads() {
  for (const auto& owned : threads_) {
    Thread* t = owned.get();
    if (!t->fiber_.started() || t->fiber_.finished()) continue;
    // A destructor on the way may charge or take a lock: it runs as t.
    running_ = t;
    {
      ExecContext::Activation act(&t->ctx_);
      t->fiber_.unwind();
    }
    running_ = nullptr;
  }
}

void Scheduler::enqueue(int core, Thread* t) {
  assert(core >= 0 && core < num_cores());
  Core& c = cores_[static_cast<std::size_t>(core)];
  t->last_core_ = core;
  t->state_ = ThreadState::kReady;
  c.runqueue.push_back(t);
  kick(core);
}

int Scheduler::choose_core(const Thread* t) const {
  if (t->attrs_.bind_core >= 0) return t->attrs_.bind_core;
  if (t->last_core_ >= 0) return t->last_core_;
  int best = 0;
  std::size_t best_load = SIZE_MAX;
  for (const Core& c : cores_) {
    const std::size_t load = c.runqueue.size() + (c.current ? 1u : 0u);
    if (load < best_load) {
      best_load = load;
      best = c.id;
    }
  }
  return best;
}

void Scheduler::kick(int core) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  if (c.kick_event.pending()) return;
  c.kick_event = engine().schedule_after(0, [this, core] { dispatch(core); });
}

void Scheduler::dispatch(int core) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  if (c.current != nullptr) return;  // core is owned; owner will re-kick
  if (c.runqueue.empty()) {
    enter_idle(c);
    return;
  }
  engine().cancel(c.idle_event);
  // Schedule-exploration choice point: which ready thread runs next. The
  // default (and the only option when the controller is inactive) is the
  // FIFO head -- byte-identical to the uninstrumented scheduler.
  std::size_t slot = 0;
  if (xpl::on() && c.runqueue.size() > 1) {
    xpl::Fingerprint fp;
    fp.mix_str(machine_.name());
    fp.mix(static_cast<std::uint64_t>(core));
    for (const Thread* q : c.runqueue) fp.mix(q->id());
    slot = static_cast<std::size_t>(
        xpl::pick(xpl::SiteKind::kDispatch,
                  static_cast<int>(c.runqueue.size()), fp.value()));
  }
  Thread* t = c.runqueue[slot];
  c.runqueue.erase(c.runqueue.begin() + static_cast<std::ptrdiff_t>(slot));
  assert(t->state_ == ThreadState::kReady);

  sim::Time cost = 0;
  if (c.last_run != t || c.hooks_since_dispatch) {
    cost += costs().context_switch;
    ++c.switches;
    ++total_switches_;
    c.m_switches.inc();
    if (!switch_hooks_.empty()) c.m_switch_hook_runs.inc();
    cost += run_hooks(switch_hooks_, core);
  }
  c.hooks_since_dispatch = false;
  c.current = t;
  t->core_ = core;
  t->state_ = ThreadState::kRunning;
  if (cost > 0) {
    c.busy_time += cost;
    engine().schedule_after(cost, [this, core, t] { begin_run(core, t); });
  } else {
    begin_run(core, t);
  }
}

void Scheduler::set_timeline(obs::TraceLog* timeline, int pid) {
  timeline_ = timeline;
  timeline_pid_ = pid;
  if (timeline_ != nullptr) {
    tl_cat_thread_ = timeline_->intern("thread");
    tl_cat_hook_ = timeline_->intern("hook");
    tl_idle_name_ = timeline_->intern("idle hooks");
    for (const Core& c : cores_) {
      timeline_->set_thread_name(pid, c.id, "core " + std::to_string(c.id));
    }
  }
}

void Scheduler::timeline_begin(Core& c) {
  if (timeline_ != nullptr && c.span_start < 0) c.span_start = engine().now();
}

void Scheduler::timeline_end(Core& c, const Thread* t) {
  if (timeline_ == nullptr || c.span_start < 0) return;
  if (t->tl_name_src_ != timeline_) {
    t->tl_name_ = timeline_->intern(t->name());
    t->tl_name_src_ = timeline_;
  }
  timeline_->complete_event(t->tl_name_, tl_cat_thread_, timeline_pid_, c.id,
                            c.span_start, engine().now() - c.span_start);
  c.span_start = -1;
}

void Scheduler::begin_run(int core, Thread* t) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  assert(c.current == t);
  timeline_begin(c);
  t->slice_end_ = engine().now() + costs().timeslice;
  if (!timer_hooks_.empty() && c.next_tick == sim::kTimeInfinity) {
    c.next_tick = engine().now() + costs().timer_tick;
  }
  resume_fiber(t);
}

void Scheduler::enter(Thread* t) {
  assert(cores_[static_cast<std::size_t>(t->core_)].current == t);
  assert(running_ == nullptr && "nested fiber resume");
  running_ = t;
  t->state_ = ThreadState::kRunning;
  t->suspend_reason_ = SuspendReason::kNone;
}

void Scheduler::resume_fiber(Thread* t) {
  enter(t);
  Thread* back = nullptr;
  {
    ExecContext::Activation act(&t->ctx_);
    tls_fiber_thread = t;
    t->fiber_.resume();
    back = tls_fiber_thread;
  }
  // The fiber that gave the host thread back is t's, or the last one a
  // charge handed it to, maybe on another node: post-resume that one.
  Scheduler& s = back->sched_;
  s.running_ = nullptr;
  s.post_resume(back->core_, back);
}

void Scheduler::post_resume(int core, Thread* t) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  if (t->fiber_.finished()) {
    finish_thread(core, t);
    // A body that threw: the exception leaves through the event that
    // resumed the fiber, which the engine delivers like any event's.
    if (std::exception_ptr e = t->fiber_.take_error()) {
      std::rethrow_exception(e);
    }
    return;
  }
  switch (t->suspend_reason_) {
    case SuspendReason::kCharge:
    case SuspendReason::kSpin:
      // The core stays owned by t; a resume is (or will be) scheduled.
      return;
    case SuspendReason::kYield:
    case SuspendReason::kPreempt:
      timeline_end(c, t);
      c.last_run = t;
      c.current = nullptr;
      enqueue(core, t);
      return;
    case SuspendReason::kBlock:
      timeline_end(c, t);
      t->state_ = ThreadState::kBlocked;
      c.last_run = t;
      c.current = nullptr;
      kick(core);
      return;
    case SuspendReason::kSleep:
      timeline_end(c, t);
      t->state_ = ThreadState::kSleeping;
      c.last_run = t;
      c.current = nullptr;
      kick(core);
      return;
    case SuspendReason::kNone:
      assert(false && "fiber suspended without a reason");
      return;
  }
}

void Scheduler::finish_thread(int core, Thread* t) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  timeline_end(c, t);
  t->state_ = ThreadState::kFinished;
  c.last_run = t;
  c.current = nullptr;
  for (Thread* j : t->joiners_) {
    if (san::on()) {
      // finish_thread runs in the engine context, so the generic wake()
      // tap sees no actor; the dead thread's history must still reach its
      // joiners (join is a synchronization edge).
      san::Analyzer::global().on_wake(san::actor_of(t->ctx_),
                                      san::actor_of(j->ctx_));
    }
    wake(j);
  }
  t->joiners_.clear();
  --live_threads_;
  kick(core);
  if (live_threads_ == 0) on_all_done();
}

void Scheduler::on_all_done() {
  for (Core& c : cores_) {
    engine().cancel(c.idle_event);
    c.next_tick = sim::kTimeInfinity;
  }
}

// --- waiting / waking -------------------------------------------------------

void Scheduler::wake(Thread* t) {
  // simsan: the waker's history happens-before the wakee's next step.
  // Recorded at the *first* call, while the waking context is still active;
  // a hook-deferred re-issue (below) runs in the engine context and is
  // skipped by current_actor(), so the edge is never double-counted.
  if (san::on()) {
    san::Analyzer::global().on_wake(san::current_actor(),
                                    san::actor_of(t->ctx_));
  }
  // A wake issued from inside a hook becomes visible only once the hook's
  // accumulated work has actually been "paid for" on the virtual clock.
  if (auto* ctx = ExecContext::current_or_null();
      ctx != nullptr && !ctx->can_block()) {
    const sim::Time delay = static_cast<HookContext*>(ctx)->consumed();
    engine().schedule_after(delay, [this, t] { wake(t); });
    return;
  }
  switch (t->state_) {
    case ThreadState::kFinished:
      return;
    case ThreadState::kSleeping:
      engine().cancel(t->sleep_timer_);
      [[fallthrough]];
    case ThreadState::kBlocked:
      enqueue(choose_core(t), t);
      return;
    case ThreadState::kRunning:
    case ThreadState::kReady:
      // The thread has decided to block but has not suspended yet (it may
      // be paying a context-switch charge). Leave it a permit so the
      // upcoming block_current() returns immediately instead of losing
      // this wake-up.
      t->wake_permit_ = true;
      return;
  }
}

void Scheduler::block_current() {
  Thread* t = running_;
  assert(t != nullptr && "block_current outside a thread");
  if (t->wake_permit_) {
    t->wake_permit_ = false;
    return;
  }
  t->suspend_reason_ = SuspendReason::kBlock;
  t->fiber_.suspend();
}

void Scheduler::spin_park() {
  Thread* t = running_;
  assert(t != nullptr && "spin_park outside a thread");
  t->spin_parked_ = true;
  t->spin_start_ = engine().now();
  t->suspend_reason_ = SuspendReason::kSpin;
  t->fiber_.suspend();
}

void Scheduler::spin_unpark(Thread* t, sim::Time detect_delay) {
  // simsan: same first-call edge discipline as wake().
  if (san::on()) {
    san::Analyzer::global().on_wake(san::current_actor(),
                                    san::actor_of(t->ctx_));
  }
  if (auto* ctx = ExecContext::current_or_null();
      ctx != nullptr && !ctx->can_block()) {
    const sim::Time delay = static_cast<HookContext*>(ctx)->consumed();
    engine().schedule_after(delay + detect_delay,
                            [this, t] { spin_unpark(t, 0); });
    return;
  }
  if (!t->spin_parked_) return;
  t->spin_parked_ = false;
  engine().schedule_after(detect_delay, [this, t] {
    Core& c = cores_[static_cast<std::size_t>(t->core_)];
    assert(c.current == t);
    const sim::Time spent = engine().now() - t->spin_start_;
    c.busy_time += spent;
    t->cpu_time_ += spent;
    resume_fiber(t);
  });
}

void Scheduler::yield() {
  Thread* t = running_;
  assert(t != nullptr && "yield outside a thread");
  t->suspend_reason_ = SuspendReason::kYield;
  t->fiber_.suspend();
}

bool Scheduler::maybe_preempt() {
  Thread* t = running_;
  assert(t != nullptr && "maybe_preempt outside a thread");
  if (engine().now() < t->slice_end_) return false;
  Core& c = cores_[static_cast<std::size_t>(t->core_)];
  if (c.runqueue.empty()) {
    t->slice_end_ = engine().now() + costs().timeslice;
    return false;
  }
  t->suspend_reason_ = SuspendReason::kPreempt;
  t->fiber_.suspend();
  return true;
}

void Scheduler::sleep_for(sim::Time dt) {
  Thread* t = running_;
  assert(t != nullptr && "sleep_for outside a thread");
  assert(dt >= 0);
  // wake() cancels the timer if it ends the sleep first.
  t->sleep_timer_ = engine().schedule_after(dt, [this, t] {
    assert(t->state_ == ThreadState::kSleeping);
    enqueue(choose_core(t), t);
  });
  t->suspend_reason_ = SuspendReason::kSleep;
  t->fiber_.suspend();
}

void Scheduler::join(Thread* target) {
  Thread* t = running_;
  assert(t != nullptr && "join outside a thread");
  assert(target != t && "thread joining itself");
  if (target->finished()) return;
  target->joiners_.push_back(t);
  block_current();
}

// --- work / charging ----------------------------------------------------------

void Scheduler::charge_current(sim::Time dt) {
  Thread* t = running_;
  assert(t != nullptr && "charge_current outside a thread");
  assert(dt >= 0);
  if (dt == 0) return;
  Core& c = cores_[static_cast<std::size_t>(t->core_)];
  c.busy_time += dt;
  t->cpu_time_ += dt;
  // When no event can run before the resume, the clock advances in place.
  if (engine().try_advance(dt)) return;
  engine().schedule_after(dt, Resume{this, t, nullptr});
  t->suspend_reason_ = SuspendReason::kCharge;
  run_ahead(t);
}

void Scheduler::spin(SpinSteps& steps) {
  Thread* t = running_;
  assert(t != nullptr && "spin outside a thread");
  SpinGroup::of(engine()).join(*this, t, steps);
  if (run_steps(t, steps)) return;
  t->suspend_reason_ = SuspendReason::kCharge;
  // A world torn down mid-spin unwinds the fiber from here: its next step
  // must not run against the frames and the thread it steps.
  struct CancelOnUnwind {
    sim::Engine& engine;
    SpinSteps& steps;
    ~CancelOnUnwind() {
      engine.cancel(steps.pending_);
      if (steps.group_ != nullptr) steps.group_->leave(steps);
    }
  } cancel{engine(), steps};
  run_ahead(t);
}

void Scheduler::run_ahead(Thread* t) {
  // Run from here what the engine loop would run next, for as long as it
  // is a charge's resume or a spinning thread's step: a step in place, a
  // resume by one fiber switch (none for t's own), with no pass through
  // the engine stack. Anything else runs there, once t gives its fiber up.
  // Every take is within the run loop or window this one runs in.
  sim::Engine::Taker taker(engine());
  Resume next{};
  while (taker.take(next)) {
    running_ = nullptr;
    if (next.steps == nullptr ||
        next.sched->steps_hand_back(next.t, *next.steps)) {
      next.sched->enter(next.t);
      if (next.t == t) return;
      ExecContext::hand_over(&next.t->ctx_);
      tls_fiber_thread = next.t;
      t->fiber_.switch_to(next.t->fiber_);
      return;
    }
    running_ = t;
  }
  t->fiber_.suspend();
}

bool Scheduler::run_steps(Thread* t, SpinSteps& steps) {
  Core& c = cores_[static_cast<std::size_t>(t->core_)];
  for (;;) {
    const sim::Time dt = steps.step();
    if (dt == SpinSteps::kHandBack) {
      steps.group_->leave(steps);
      return true;
    }
    assert(dt >= 0);
    if (dt == 0) continue;
    // charge_current's accounting, with the step's own resume event.
    c.busy_time += dt;
    t->cpu_time_ += dt;
    if (engine().try_advance(dt)) {
      steps.group_->checkpoint(steps);
      continue;
    }
    steps.pending_ = engine().schedule_after(dt, Resume{this, t, &steps});
    steps.pending_at_ = engine().now() + dt;
    return false;
  }
}

bool Scheduler::steps_hand_back(Thread* t, SpinSteps& steps) {
  steps.group_->taken(steps);
  // The steps see what the fiber would: t running, its context active.
  const ExecContext::Activation act(&t->ctx_);
  running_ = t;
  const bool back = run_steps(t, steps);
  running_ = nullptr;
  return back;
}

void Scheduler::skip_cycles(Thread* t, SpinSteps& steps, std::uint64_t k,
                            sim::Time span) {
  Core& c = cores_[static_cast<std::size_t>(t->core_)];
  c.busy_time += span;
  t->cpu_time_ += span;
  skipped_cycles_ += k;
  const ExecContext::Activation act(&t->ctx_);
  steps.skip_cycles(k);
}

void Scheduler::work(sim::Time total) {
  Thread* t = running_;
  assert(t != nullptr && "work outside a thread");
  sim::Time remaining = total;
  while (remaining > 0) {
    Core& c = cores_[static_cast<std::size_t>(t->core_)];
    if (!timer_hooks_.empty() && engine().now() >= c.next_tick) {
      run_timer_tick_inline(t);
      continue;
    }
    sim::Time slice_left = t->slice_end_ - engine().now();
    if (slice_left <= 0) {
      if (!c.runqueue.empty()) {
        t->suspend_reason_ = SuspendReason::kPreempt;
        t->fiber_.suspend();
        continue;  // resumed with a fresh timeslice
      }
      t->slice_end_ = engine().now() + costs().timeslice;
      slice_left = costs().timeslice;
    }
    sim::Time chunk = std::min(remaining, slice_left);
    if (!timer_hooks_.empty()) {
      chunk = std::min(chunk, c.next_tick - engine().now());
    }
    assert(chunk > 0);
    charge_current(chunk);
    remaining -= chunk;
  }
}

void Scheduler::run_timer_tick_inline(Thread* t) {
  Core& c = cores_[static_cast<std::size_t>(t->core_)];
  c.next_tick = engine().now() + costs().timer_tick;
  if (!timer_hooks_.empty()) c.m_timer_hook_runs.inc();
  const sim::Time consumed = run_hooks(timer_hooks_, t->core_);
  c.hook_time += consumed;
  if (consumed > 0) charge_current(consumed);
}

// --- hooks -------------------------------------------------------------------

int Scheduler::add_idle_hook(Hook h) {
  idle_hooks_.emplace_back(next_hook_id_, std::move(h));
  notify_idle_work();
  return next_hook_id_++;
}

int Scheduler::add_switch_hook(Hook h) {
  switch_hooks_.emplace_back(next_hook_id_, std::move(h));
  return next_hook_id_++;
}

int Scheduler::add_timer_hook(Hook h) {
  timer_hooks_.emplace_back(next_hook_id_, std::move(h));
  return next_hook_id_++;
}

namespace {
void remove_hook(std::vector<std::pair<int, Hook>>& hooks, int id) {
  std::erase_if(hooks, [id](const auto& p) { return p.first == id; });
}
}  // namespace

void Scheduler::remove_idle_hook(int id) { remove_hook(idle_hooks_, id); }
void Scheduler::remove_switch_hook(int id) { remove_hook(switch_hooks_, id); }
void Scheduler::remove_timer_hook(int id) { remove_hook(timer_hooks_, id); }

sim::Time Scheduler::run_hooks(std::vector<std::pair<int, Hook>>& hooks,
                               int core) {
  if (hooks.empty()) return 0;
  HookContext hctx(machine_, core);
  return hctx.run([&] {
    for (auto& [id, h] : hooks) {
      (void)id;
      h.run(hctx);
    }
  });
}

bool Scheduler::hooks_want(const std::vector<std::pair<int, Hook>>& hooks,
                           int core) const {
  for (const auto& [id, h] : hooks) {
    (void)id;
    if (h.want && h.want(core)) return true;
  }
  return false;
}

void Scheduler::notify_idle_work() {
  if (live_threads_ == 0) return;
  for (Core& c : cores_) {
    if (c.current == nullptr && c.runqueue.empty() &&
        !c.idle_event.pending() && hooks_want(idle_hooks_, c.id)) {
      arm_idle(c, 0);
    }
  }
}

void Scheduler::enter_idle(Core& c) {
  c.next_tick = sim::kTimeInfinity;
  if (live_threads_ > 0 && !c.idle_event.pending() &&
      hooks_want(idle_hooks_, c.id)) {
    arm_idle(c, 0);
  }
}

void Scheduler::arm_idle(Core& c, sim::Time delay) {
  const int core = c.id;
  c.idle_event = engine().schedule_after(delay, [this, core] { idle_tick(core); });
}

void Scheduler::idle_tick(int core) {
  Core& c = cores_[static_cast<std::size_t>(core)];
  (void)c;
  if (c.current != nullptr) return;
  if (!c.runqueue.empty()) {
    kick(core);
    return;
  }
  if (!idle_hooks_.empty()) c.m_idle_hook_runs.inc();
  const sim::Time consumed = run_hooks(idle_hooks_, core);
  c.hook_time += consumed;
  c.hooks_since_dispatch = true;
  if (timeline_ != nullptr && consumed > 0) {
    timeline_->complete_event(tl_idle_name_, tl_cat_hook_, timeline_pid_, core,
                              engine().now(), consumed);
  }
  if (live_threads_ > 0 && hooks_want(idle_hooks_, core)) {
    arm_idle(c, std::max(consumed, costs().idle_poll_period));
  }
}

// --- stats ---------------------------------------------------------------------

sim::Time Scheduler::core_busy_time(int core) const {
  return cores_.at(static_cast<std::size_t>(core)).busy_time;
}

sim::Time Scheduler::core_hook_time(int core) const {
  return cores_.at(static_cast<std::size_t>(core)).hook_time;
}

}  // namespace pm2::mth
