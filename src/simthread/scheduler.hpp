// pm2sim -- the two-level thread scheduler (our Marcel).
//
// One Scheduler animates the cores of one Machine. It is modelled on
// Marcel's design as the paper uses it:
//
//  * user-level threads (fibers) multiplexed on per-core runqueues,
//  * optional per-thread core binding,
//  * preemptive round-robin at a configurable timeslice,
//  * and -- the part the paper's Sections 3.3/4 depend on -- *progression
//    hooks*: registered callbacks invoked when a core is idle, on context
//    switches, and on timer ticks, which PIOMan uses to poll networks on
//    otherwise-unused cycles.
//
// All thread-facing operations (work, yield, sleep, block) must be invoked
// from inside a simulated thread; world-facing operations (spawn, wake,
// hook registration) may be invoked from anywhere.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "simcore/time.hpp"
#include "simmachine/machine.hpp"
#include "simthread/exec_context.hpp"
#include "simthread/thread.hpp"

namespace pm2::obs {
class TraceLog;
}

namespace pm2::mth {

/// A progression hook. `run` performs (and prices, via the HookContext) a
/// bounded amount of work; `want` reports whether the hook has potential
/// work for a core, which gates the idle loop's re-arming.
struct Hook {
  std::function<void(HookContext&)> run;
  std::function<bool(int core)> want;  ///< may be null => "never pending"
};

/// The rest of a spin loop, which a thread hands to Scheduler::spin() so its
/// fiber is not resumed for every iteration.
class SpinSteps {
 public:
  /// What step() returns to resume the thread.
  static constexpr sim::Time kHandBack = -1;

  /// Do what the thread would do at the current instant, with its context
  /// active, and return the time it would charge next (0: none), or
  /// kHandBack. A step must not charge, block, yield or throw: it may run
  /// on another thread's fiber stack.
  virtual sim::Time step() = 0;

 protected:
  ~SpinSteps() = default;

 private:
  friend class Scheduler;
  sim::EventHandle pending_;  ///< the scheduled next step, if any
};

class Scheduler {
 public:
  explicit Scheduler(mach::Machine& machine);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  mach::Machine& machine() const { return machine_; }
  sim::Engine& engine() const { return machine_.engine(); }
  const mach::CostBook& costs() const { return machine_.costs(); }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  // --- world-facing -------------------------------------------------------

  /// Create a thread; it becomes runnable immediately. An exception that
  /// escapes @p body finishes the thread and is rethrown from the event
  /// that resumed it, so it reaches Engine::run()'s caller like any
  /// event's.
  Thread* spawn(ThreadFunc body, ThreadAttrs attrs = {});

  /// Move a Blocked thread back to a runqueue. Callable from any context.
  void wake(Thread* t);

  /// Register progression hooks; returns a handle usable for removal.
  int add_idle_hook(Hook h);
  int add_switch_hook(Hook h);
  int add_timer_hook(Hook h);
  void remove_idle_hook(int id);
  void remove_switch_hook(int id);
  void remove_timer_hook(int id);

  /// Tell idle cores that hook work may now be pending (re-arms idle loops).
  void notify_idle_work();

  /// Number of threads spawned and not yet finished.
  int live_threads() const { return live_threads_; }

  /// Unwind every thread whose body started and never finished, as a world
  /// torn down mid-run leaves them (a deadlock, a run cut at a deadline, an
  /// event that threw), so the destructors of their frames release what
  /// the frames own. For a world's owner, after its last run and while
  /// everything the threads refer to is alive; the threads take no further
  /// part in the simulation. Nothing else runs meanwhile: a destructor may
  /// charge or release a lock, but one that waits for another thread or an
  /// event never returns.
  void unwind_threads();

  // --- thread-facing (must run inside a simulated thread) ------------------

  /// The running thread of the active context (nullptr in engine context).
  Thread* current_thread() const { return running_; }

  /// Consume CPU time; preemptible at timeslice boundaries, and timer hooks
  /// fire at chunk boundaries.
  void work(sim::Time t);

  /// Consume CPU time without preemption or tick processing (lock costs and
  /// other short critical-path charges).
  void charge_current(sim::Time t);

  /// Hand the rest of a spin to the scheduler: run @p steps for the current
  /// thread until one hands back, then return. Each step's time is charged
  /// exactly as charge_current() would charge it (core busy and thread CPU
  /// time, in place when Engine::try_advance allows, otherwise as one event
  /// in the slot the charge's resume would take), while the thread keeps
  /// its core and its fiber stays suspended. @p steps must outlive the call.
  void spin(SpinSteps& steps);

  void yield();
  void sleep_for(sim::Time t);
  void join(Thread* t);

  /// Timeslice checkpoint for spin/poll loops: if the slice expired and
  /// other threads wait on this core, yield to them; otherwise renew the
  /// slice. Returns true if a preemption happened. Without such
  /// checkpoints a busy-waiting thread could starve the very thread it
  /// waits on when threads outnumber cores.
  bool maybe_preempt();

  /// True if the running thread's timeslice has ended: maybe_preempt()
  /// would yield to a queued thread now.
  bool timeslice_over() const { return engine().now() >= running_->slice_end_; }

  /// Number of threads queued on @p core (excluding the running one).
  std::size_t runqueue_length(int core) const {
    return cores_.at(static_cast<std::size_t>(core)).runqueue.size();
  }

  /// Block the current thread until wake(). Used by sync primitives.
  void block_current();

  /// Park the current thread in a busy-spin: the core stays occupied and
  /// accounted busy, but no events fire until spin_unpark().
  void spin_park();

  /// Resume a spin-parked thread after @p detect_delay (the granularity at
  /// which the spinner re-reads the flag). Callable from any context.
  void spin_unpark(Thread* t, sim::Time detect_delay);

  /// True if @p t is currently spin-parked (i.e. spinning).
  bool spin_parked(const Thread* t) const { return t->spin_parked_; }

  // --- statistics ----------------------------------------------------------

  std::uint64_t context_switches() const { return total_switches_; }
  sim::Time core_busy_time(int core) const;
  sim::Time core_hook_time(int core) const;

  /// Attach a timeline: thread execution spans and hook activity are
  /// recorded into @p timeline as (pid=@p pid, tid=core). nullptr detaches.
  void set_timeline(obs::TraceLog* timeline, int pid);

 private:
  friend class ThreadContext;

  struct Core {
    int id = 0;
    std::deque<Thread*> runqueue;
    Thread* current = nullptr;   ///< thread owning the core (may be suspended)
    Thread* last_run = nullptr;  ///< for switch-cost accounting
    sim::EventHandle kick_event;
    sim::EventHandle idle_event;
    sim::Time next_tick = sim::kTimeInfinity;
    sim::Time busy_time = 0;
    sim::Time hook_time = 0;
    std::uint64_t switches = 0;
    /// Idle hooks ran since the last dispatch: the core's context belongs
    /// to the idle loop, so even re-dispatching the same thread pays a
    /// full switch (this is half of the paper's 750 ns passive-wait cost).
    bool hooks_since_dispatch = false;
    sim::Time span_start = -1;  ///< timeline: current thread span begin
    // Registry instruments, labeled (sched, <machine>, core=id).
    obs::Counter m_switches;
    obs::Counter m_idle_hook_runs;
    obs::Counter m_switch_hook_runs;
    obs::Counter m_timer_hook_runs;
  };

  /// The event that resumes a thread whose charge or spin step could not
  /// advance the clock in place: its fiber after a charge, its next step in
  /// a spin. A type of its own, so a charge can recognize the next event as
  /// one it may run from its own fiber (Engine::take_next, run_ahead()).
  struct Resume {
    Scheduler* sched;
    Thread* t;
    SpinSteps* steps;  ///< the spin's steps; null after a charge
    void operator()() const {
      if (steps == nullptr || sched->steps_hand_back(t, *steps)) {
        sched->resume_fiber(t);
      }
    }
  };

  void enqueue(int core, Thread* t);
  int choose_core(const Thread* t) const;
  void kick(int core);
  void dispatch(int core);
  void begin_run(int core, Thread* t);
  /// What every resume does before switching in: @p t runs on its core.
  void enter(Thread* t);
  void resume_fiber(Thread* t);
  /// After @p t, the running thread, scheduled its resume: run what comes
  /// next from its stack while that can be done there, and return once t
  /// continues.
  void run_ahead(Thread* t);
  /// Run @p steps for @p t, charging each; true once one hands back, false
  /// with the next step scheduled.
  bool run_steps(Thread* t, SpinSteps& steps);
  /// run_steps() for a suspended spinner @p t, as it would run them.
  bool steps_hand_back(Thread* t, SpinSteps& steps);
  void post_resume(int core, Thread* t);
  void finish_thread(int core, Thread* t);
  void enter_idle(Core& c);
  void arm_idle(Core& c, sim::Time delay);
  void idle_tick(int core);
  void run_timer_tick_inline(Thread* t);
  sim::Time run_hooks(std::vector<std::pair<int, Hook>>& hooks, int core);
  bool hooks_want(const std::vector<std::pair<int, Hook>>& hooks, int core) const;
  void on_all_done();

  mach::Machine& machine_;
  std::vector<Core> cores_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<std::pair<int, Hook>> idle_hooks_;
  std::vector<std::pair<int, Hook>> switch_hooks_;
  std::vector<std::pair<int, Hook>> timer_hooks_;
  int next_hook_id_ = 1;
  /// Engine partition this node's scheduler was built in. spawn() pins
  /// itself here so public entry points invoked from the setup thread (or
  /// any foreign partition) still schedule into the node's own heap.
  int home_partition_ = 0;
  std::uint64_t next_thread_id_ = 1;
  int live_threads_ = 0;
  Thread* running_ = nullptr;
  std::uint64_t total_switches_ = 0;
  obs::TraceLog* timeline_ = nullptr;
  int timeline_pid_ = 0;
  // Interned-id caches for the per-slice span emission (hot path): filled
  // in set_timeline so steady-state spans never touch the string table.
  std::uint16_t tl_cat_thread_ = 0;
  std::uint16_t tl_cat_hook_ = 0;
  std::uint16_t tl_idle_name_ = 0;

  void timeline_begin(Core& c);
  void timeline_end(Core& c, const Thread* t);
};

}  // namespace pm2::mth
