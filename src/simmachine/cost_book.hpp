// pm2sim -- the CostBook: every calibrated virtual-time constant in one place.
//
// Each constant is annotated with the paper measurement it is calibrated
// against. The derived figure-level overheads (140 ns coarse locking,
// 230 ns fine locking, 200 ns PIOMan, 750 ns semaphores, 400 ns / 1.2 us /
// 2.3 us / 3.1 us cache distances, 2 us tasklets) are NOT encoded anywhere:
// they must emerge from the number of primitive operations our
// implementation actually performs on the critical path. That emergence is
// what the benchmarks check.
#pragma once

#include "simcore/time.hpp"

namespace pm2::mach {

using sim::Time;

/// Calibrated primitive costs for one node type.
struct CostBook {
  // --- CPU synchronization primitives -------------------------------------
  /// Uncontended spinlock acquire on a locally-owned line. Paper Sec. 3.1:
  /// one acquire/release cycle costs 70 ns => 35 + 35.
  Time spin_acquire = 35;
  Time spin_release = 35;
  /// Re-check period while actively spinning on a held lock or a flag.
  Time spin_retry = 20;

  /// Spinlock fairness horizon. A releasing core's immediate re-acquire
  /// beats a remote spinner's retry (the line is still local: barging);
  /// but a spinner starved longer than this effectively wins the next
  /// release, as it does on real hardware over microsecond scales. This is
  /// what makes coarse-grain locking alternate -- and thus serialize --
  /// two communicating threads (Fig. 5).
  Time spin_fair_threshold = 1000;

  /// Bounded exponential backoff for the oversubscribed spin-then-yield
  /// path (runqueue non-empty, so the contended acquirer yields between
  /// retries instead of parking). After spin_backoff_onset consecutive
  /// failed retries, the re-check period doubles per further failure up to
  /// spin_backoff_cap. Uncontended and parked acquisitions never pay this;
  /// it only perturbs schedules that already lose several retries in a row
  /// -- exactly the deterministic starvation limit cycles it exists to
  /// break (coarse lock at 4x oversubscription).
  int spin_backoff_onset = 4;
  Time spin_backoff_cap = 2560;

  /// Semaphore, completion-flag and barrier fast path (no blocking).
  Time sem_fast_path = 25;

  /// One scheduler context switch (save + restore + runqueue manipulation).
  /// Paper Sec. 3.3: semaphore-based waiting costs ~750 ns per one-way
  /// latency; one blocked wait costs one switch-out plus one switch-in.
  Time context_switch = 375;

  /// Creating a thread (allocation + runqueue insertion).
  Time thread_spawn = 1500;

  /// Scheduler timeslice for preemptive round-robin between ready threads.
  Time timeslice = sim::microseconds(100);

  /// Period of the timer-interrupt hook (Marcel uses the OS tick).
  Time timer_tick = sim::milliseconds(1);

  // --- Cache-line transfer costs (Fig. 8) ---------------------------------
  /// Cost for a core to gain ownership of a line last owned by another core,
  /// by cache distance. A remote-polled pingpong bounces ~5.5 lines per
  /// message between the application core and the polling core (lock words,
  /// request state, the completion flag); the values are calibrated so the
  /// end-to-end Fig. 8 overheads land on the paper's measurements:
  ///   quad-core:  shared-L2 ~+400 ns, same-chip ~+1.2 us;
  ///   dual-quad:  shared-L2 ~+400 ns, same-chip ~+2.3 us,
  ///               other-chip ~+3.1 us.
  Time line_shared_l2 = 75;
  Time line_same_chip = 220;
  Time line_other_chip = 575;  ///< only meaningful on multi-chip nodes

  // --- PIOMan -------------------------------------------------------------
  /// Internal request-list management + locking per PIOMan poll pass.
  /// Mostly amortized off the critical path (paid while waiting anyway).
  Time pioman_pass = 100;

  /// Completion-side bookkeeping: when a poll pass makes progress, the
  /// satisfied request must be unlinked from PIOMan's lists and its waiter
  /// signalled -- this part lands squarely on the critical path.
  /// Paper Sec. 3.3 / Fig. 6: PIOMan adds ~200 ns per one-way latency
  /// ("management of PIOMan internal lists as well as locking").
  Time pioman_completion = 150;

  /// Tasklet machinery: scheduling a tasklet on a core, and the locking +
  /// dispatch cost when the target core runs it. Paper Sec. 4.2 / Fig. 9:
  /// tasklet-offloaded submission adds ~2 us per one-way latency, dominated
  /// by "the complex locking mechanism involved when a tasklet is invoked".
  Time tasklet_schedule = 600;
  Time tasklet_invoke = 1000;

  /// Extra bookkeeping for the idle-core (hook-based, lock-free) offload
  /// path; the rest of its Fig. 9 overhead comes from cache-line handoffs.
  Time idle_offload_detect = 100;

  /// Pacing of the idle-loop: how often an otherwise-idle core re-enters
  /// the PIOMan hook.
  Time idle_poll_period = 50;

  // --- Presets ------------------------------------------------------------
  /// Quad-core 3.16 GHz Xeon X5460 node (the paper's main testbed).
  static CostBook xeon_quad();

  /// Dual quad-core Xeon node (Sec. 4.1, second affinity experiment).
  /// Same-chip-different-L2 handoffs are pricier there (1150 ns per hop).
  static CostBook xeon_dual_quad();
};

}  // namespace pm2::mach
