// pm2sim -- the discrete-event engine.
//
// One Engine owns the virtual time of an entire simulated cluster. Every
// higher layer (machine model, thread scheduler, NICs, locks) expresses the
// passage of time as events scheduled here.
//
// The engine runs in one of two shapes:
//
//  * *single-partition* (the default): one event heap, one clock, strictly
//    single-host-threaded -- the deterministic reference every test and
//    figure was built on. Behavior is bit-identical to the pre-partitioned
//    engine.
//  * *partitioned*: configure_partitions(n, lookahead) splits the world
//    into n partitions, each with its own event heap, virtual clock and
//    executed-event counter. Partitions advance in conservative windows:
//    every partition may execute events strictly below
//    `horizon = T_min + lookahead` (T_min = earliest pending event across
//    all partitions) without seeing anything from its peers, because the
//    only cross-partition edges are simnet wire deliveries and those take
//    at least `lookahead` of virtual time. Cross-partition events travel
//    through per-(src,dst) mailboxes, drained at the window barrier in a
//    canonical (when, src, seq) order, so the schedule -- and therefore
//    every virtual timestamp and every CSV -- is byte-identical no matter
//    how many host workers execute the windows. set_workers(w) spreads the
//    partitions over w host threads (partition p runs on worker p % w,
//    always the same thread for a given run).
//
// Determinism contract: for a fixed partition count, runs are identical
// across worker counts (1 or many) and across repeated runs. Changing the
// *partition* count changes event interleaving order (each partition has
// its own tie-break sequence), so compare like with like.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/partition.hpp"
#include "simcore/time.hpp"

namespace pm2::sim {

/// Discrete-event simulation engine: virtual clock(s) plus event queue(s).
///
/// Usage pattern:
/// ```
/// Engine eng;
/// eng.schedule_after(microseconds(3), [] { ... });
/// eng.run();                 // until no event remains
/// ```
/// Components never busy-wait on the host: "waiting" is always expressed as
/// a scheduled wake-up event or by simply not being scheduled at all.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- partitioning ---------------------------------------------------------

  /// Split the world into @p n partitions synchronized with conservative
  /// @p lookahead (ns, > 0 when n > 1). Must be called before any event is
  /// scheduled and at most once. n == 1 keeps the reference single-heap
  /// engine (lookahead is ignored).
  void configure_partitions(int n, Time lookahead);

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  Time lookahead() const { return lookahead_; }

  /// Host worker threads used by run()/run_until() in partitioned mode
  /// (clamped to the partition count; 1 = run all partitions on the calling
  /// thread). The schedule is identical for every value.
  void set_workers(int w);
  int workers() const { return workers_; }

  /// The partition the calling thread is currently executing for (the
  /// ambient PartitionScope during setup, the event's partition during a
  /// run, 0 otherwise).
  int current_partition() const { return active_partition(); }

  /// RAII: route schedule_at()/schedule_after() and the partition-sharded
  /// singletons (metrics, simsan) to partition @p p for the current thread.
  /// Used around world construction so every component's events live in its
  /// node's partition.
  class PartitionScope {
   public:
    PartitionScope(Engine& engine, int p);
    ~PartitionScope() { tls_partition = prev_; }
    PartitionScope(const PartitionScope&) = delete;
    PartitionScope& operator=(const PartitionScope&) = delete;

   private:
    int prev_;
  };

  // --- clock & scheduling ---------------------------------------------------

  /// Current virtual time of the calling context's partition.
  Time now() const { return parts_[active_partition()]->now; }

  /// Virtual clock of one partition (diagnostics, tests).
  Time partition_now(int p) const { return part(p).now; }

  /// Schedule a callback at absolute virtual time @p when in the calling
  /// context's partition. @p when must not be in the past. The callable is
  /// constructed in its event slot.
  template <typename F>
  EventHandle schedule_at(Time when, F&& f) {
    Partition& p = *parts_[static_cast<std::size_t>(active_partition())];
    if (when < p.now) throw_in_past(when, p.now);
    return p.queue.schedule(when, std::forward<F>(f));
  }

  /// Schedule a callback @p delay nanoseconds from now (delay >= 0).
  template <typename F>
  EventHandle schedule_after(Time delay, F&& f) {
    assert(delay >= 0 && "negative delay");
    return schedule_at(now() + delay, std::forward<F>(f));
  }

  /// Schedule a callback into partition @p dst at time @p when. The only
  /// legal producer of true cross-partition events is the simnet wire (the
  /// delivery time is what carries the lookahead): @p when must be at least
  /// the current window's floor plus the configured lookahead. Same-
  /// partition destinations degrade to a plain schedule_at. Cross events
  /// are buffered in a per-(src,dst) mailbox and merged into the target
  /// heap at the next window barrier in (when, src partition, send seq)
  /// order -- deterministic for any worker count.
  void schedule_cross(int dst, Time when, EventQueue::Callback cb);

  /// Cancel a pending event. Safe on fired/cancelled handles. (Cross-
  /// partition events are not cancellable -- they have no handle.)
  bool cancel(EventHandle& h);

  // --- running --------------------------------------------------------------

  /// Run until the queues drain or stop() is called. An exception thrown by
  /// an event reaches the caller. Single-partition: at once. Partitioned:
  /// the throwing partition ends its window there, every other partition
  /// finishes the window, and the exception of the lowest-index partition
  /// that threw is rethrown, so the caller sees the same exception and the
  /// same state at every worker count.
  void run();

  /// Run events up to and including time @p deadline; clocks are left at
  /// @p deadline (single-partition: min(deadline, last fired event time) as
  /// before). Exceptions as in run().
  void run_until(Time deadline);

  /// Request run()/run_until() to return. Single-partition: after the
  /// current event. Partitioned: at the next window boundary. Every
  /// partition finishes the current window first, and the flag is read once
  /// per window, after every worker has finished, so the stop point is
  /// identical for every worker count.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// True if stop() was called during the current/last run.
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

  /// Move the calling partition's clock to now() + @p dt in place, if the
  /// loop now running would execute an event at that time next, so an
  /// event scheduled there would change nothing but the event count. That
  /// holds when no queued entry, live or cancelled, is due at or before
  /// now() + dt (an earlier-scheduled event at the same time runs first);
  /// when the loop's limit allows that time (the run_until deadline; a
  /// window's horizon and deadline, with no backpressure abort); and, in
  /// single-partition runs only, when no stop() is pending (a window
  /// ignores stop() until its barrier). Returns false, changing nothing,
  /// otherwise and outside a run. Not counted in events_executed().
  bool try_advance(Time dt) {
    Partition& p = *parts_[static_cast<std::size_t>(active_partition())];
    const Time t = p.now + dt;
    if (p.queue.due_by(t) || t > p.advance_limit || !loop_goes_on(p)) {
      return false;
    }
    p.now = t;
    return true;
  }

  /// Take the event the loop now running would execute next, if its
  /// callback is an @p F, instead of returning to the loop to run it: pop
  /// it, move the calling partition's clock to its time, count it in
  /// events_executed(), and copy the callable to @p out for the caller to
  /// run. The loop would run it next when it is the earliest live event of
  /// the calling partition, its time is within the loop's limit (the
  /// run_until deadline; a window's horizon and deadline), no backpressure
  /// abort ends the window, and, in single-partition runs only, no stop()
  /// is pending. Returns false, changing nothing but dropped cancelled
  /// entries, otherwise and outside a run.
  template <typename F>
  bool take_next(F& out) {
    Partition& p = *parts_[static_cast<std::size_t>(active_partition())];
    if (!loop_goes_on(p)) return false;
    Time when = 0;
    if (!p.queue.take_next_if(p.advance_limit, when, out)) return false;
    assert(when >= p.now && "event queue went backwards");
    p.now = when;
    ++p.executed;
    return true;
  }

  // --- introspection --------------------------------------------------------

  /// Number of live pending events (all partitions; excludes undelivered
  /// mailbox entries).
  std::size_t pending_events() const;

  /// Total events executed since construction (all partitions).
  std::uint64_t events_executed() const;

  /// Events executed by one partition (load-balance diagnostics).
  std::uint64_t partition_events_executed(int p) const {
    return part(p).executed;
  }

  /// Synchronization windows executed by partitioned runs.
  std::uint64_t windows_executed() const { return windows_; }

  /// Host nanoseconds the workers of partitioned runs spent waiting at
  /// window barriers, summed over workers and runs. Host time, so it varies
  /// run to run; 0 at one worker, which never waits.
  std::uint64_t barrier_wait_ns() const { return barrier_wait_ns_; }

  /// Cross-partition events sent through mailboxes.
  std::uint64_t cross_events() const;

  /// Times a sender's window was cut short by a full mailbox.
  std::uint64_t mailbox_overflows() const;

  /// Soft mailbox capacity: when a (src,dst) mailbox reaches this many
  /// undelivered events, the sending partition ends its current window
  /// early (deterministic backpressure -- the events are delivered at the
  /// barrier as usual and the window resumes from the same horizon rule).
  static constexpr std::size_t kMailboxCapacity = 4096;

 private:
  struct CrossEvent {
    Time when;
    std::uint64_t seq;  ///< per-source send sequence (ties: src, then seq)
    int src;
    EventQueue::Callback cb;
  };

  /// One shard of the world: event heap + clock + counters. Padded so two
  /// workers' hot partitions never share a cache line.
  struct alignas(64) Partition {
    EventQueue queue;
    Time now = 0;
    std::uint64_t executed = 0;
    std::uint64_t out_seq = 0;     ///< next cross-event send sequence
    std::uint64_t cross_sent = 0;
    std::uint64_t overflows = 0;
    Time window_floor = 0;         ///< T_min of the window being executed
    bool window_abort = false;     ///< backpressure: end this window early
    /// Latest event time the running loop executes; -1 outside a run.
    Time advance_limit = -1;
    std::exception_ptr failure;    ///< what an event of this window threw
    std::vector<CrossEvent> inbox_scratch;  ///< drain-time merge buffer
  };

  int active_partition() const {
    const int p = tls_partition;
    return p > 0 && p < static_cast<int>(parts_.size()) ? p : 0;
  }
  Partition& part(int p) { return *parts_.at(static_cast<std::size_t>(p)); }
  const Partition& part(int p) const {
    return *parts_.at(static_cast<std::size_t>(p));
  }
  std::vector<CrossEvent>& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) * parts_.size() +
                 static_cast<std::size_t>(dst)];
  }

  /// False once the running loop will stop at the current event: a
  /// backpressure abort ends the window, and a single-partition run stops
  /// at a pending stop() (a window ignores it until its barrier).
  bool loop_goes_on(const Partition& p) const {
    return !p.window_abort && !(parts_.size() == 1 && stopped());
  }
  [[noreturn]] static void throw_in_past(Time when, Time now);
  Time window_horizon(Time tmin) const;
  bool step_partition(Partition& p);
  void drain_mailboxes_for(int dst);
  /// Execute partition @p idx's share of the window [tmin, horizon). Returns
  /// false, with the exception kept in the partition's `failure`, if an
  /// event threw.
  bool run_window(int idx, Time tmin, Time horizon, Time deadline);
  /// The window loop, on min(workers, partitions) host threads.
  void run_windows(Time deadline);

  std::vector<std::unique_ptr<Partition>> parts_;
  /// Per-(src,dst) mailboxes, indexed src * n + dst. Written only by src's
  /// executing thread during a window, drained only by dst's thread after
  /// the barrier -- the barrier is the hand-off, so no locks are needed.
  std::vector<std::vector<CrossEvent>> mail_;
  Time lookahead_ = 0;
  int workers_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t barrier_wait_ns_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace pm2::sim
