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
  engine().schedule_after(dt, ChargeResume{this, t});
  t->suspend_reason_ = SuspendReason::kCharge;
  // When the next event is a charge's resume, this one's included, run it
  // from here: one fiber switch, with no pass through the engine stack.
  ChargeResume next{};
  if (!engine().take_next(next)) {
    t->fiber_.suspend();
    return;
  }
  running_ = nullptr;
  next.sched->enter(next.t);
  if (next.t == t) return;
  ExecContext::hand_over(&next.t->ctx_);
  tls_fiber_thread = next.t;
  t->fiber_.switch_to(next.t->fiber_);
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
