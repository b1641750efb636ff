// pm2sim -- simulated threads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"
#include "simthread/exec_context.hpp"
#include "simthread/fiber.hpp"

namespace pm2::mth {

class Scheduler;
class Thread;

/// Thread body.
using ThreadFunc = std::function<void()>;

enum class ThreadState {
  kReady,     ///< on a runqueue
  kRunning,   ///< owning a core (possibly suspended mid-charge)
  kBlocked,   ///< waiting on a synchronization object
  kSleeping,  ///< timed sleep
  kFinished,  ///< body returned
};

const char* to_string(ThreadState s);

/// Creation attributes (name, core binding, stack size).
struct ThreadAttrs {
  std::string name = "thread";
  /// Core to pin the thread to; -1 lets the scheduler place it.
  int bind_core = -1;
  std::size_t stack_size = 256 * 1024;
  /// Engine partition the thread's events belong to; -1 (default) uses the
  /// scheduler's home partition (the partition its node was built in).
  /// Progress fibers spawned on behalf of a specific endpoint pass that
  /// endpoint's home partition here, so spawn() calls arriving from a
  /// foreign partition's context (e.g. cross-partition endpoint stealing)
  /// cannot land the new thread's events in the caller's partition.
  int partition = -1;
};

/// Why a fiber gave control back to the scheduler.
enum class SuspendReason {
  kNone,
  kCharge,   ///< consuming virtual CPU time while another event is due
             ///< first; the resume event is scheduled
  kSpin,     ///< busy-spinning on a flag; resume is triggered by the setter
  kYield,    ///< voluntary yield
  kPreempt,  ///< timeslice expired with other work pending
  kBlock,    ///< blocked on a sync object; wake() will requeue it
  kSleep,    ///< timed sleep; wake event is scheduled
};

/// ExecContext implementation for code running inside a simulated thread.
class ThreadContext final : public ExecContext {
 public:
  explicit ThreadContext(Thread& thread) : thread_(thread) {}

  void charge(sim::Time t) override;
  bool can_block() const override { return true; }
  int core() const override;
  mach::Machine& machine() const override;

  Thread& thread() const { return thread_; }
  Scheduler& scheduler() const;

 private:
  Thread& thread_;
};

/// A simulated thread. Owned by its Scheduler; user code holds raw
/// pointers, which stay valid until the Scheduler is destroyed.
class Thread {
 public:
  Thread(Scheduler& sched, std::uint64_t id, ThreadFunc body, ThreadAttrs attrs);

  std::uint64_t id() const { return id_; }
  const std::string& name() const { return attrs_.name; }
  ThreadState state() const { return state_; }
  bool finished() const { return state_ == ThreadState::kFinished; }

  /// Core the thread is currently on (or last ran on); -1 before first run.
  int core() const { return core_; }

  /// Requested binding (-1 = unbound).
  int bind_core() const { return attrs_.bind_core; }

  /// Total virtual CPU time consumed by this thread.
  sim::Time cpu_time() const { return cpu_time_; }

 private:
  friend class Scheduler;
  friend class ThreadContext;

  Scheduler& sched_;
  std::uint64_t id_;
  ThreadAttrs attrs_;
  Fiber fiber_;
  ThreadContext ctx_;

  ThreadState state_ = ThreadState::kReady;
  SuspendReason suspend_reason_ = SuspendReason::kNone;
  int core_ = -1;
  int last_core_ = -1;
  sim::Time slice_end_ = 0;
  sim::Time spin_start_ = 0;
  sim::EventHandle sleep_timer_;  ///< pending sleep_for() wake-up
  /// Timeline name interned once per (thread, recorder): the scheduler's
  /// per-slice span emission must not re-hash the name string. Mutable --
  /// a cache filled from the const accessor path in timeline_end().
  mutable std::uint16_t tl_name_ = 0;
  mutable const void* tl_name_src_ = nullptr;
  bool spin_parked_ = false;
  bool wake_permit_ = false;
  sim::Time cpu_time_ = 0;
  std::vector<Thread*> joiners_;
};

}  // namespace pm2::mth
