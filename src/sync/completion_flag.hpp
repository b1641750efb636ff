// pm2sim -- completion notification with the paper's three waiting policies.
//
// A CompletionFlag is the object behind nm_wait / MPI_Wait: a producer
// (NIC completion path, PIOMan hook, progression thread) sets it; a
// consumer waits for it. The paper's Sec. 3.3 compares three ways to wait:
//
//  * busy waiting   -- spin, burning the core, lowest latency;
//  * passive waiting -- block on a scheduler primitive, paying ~2 context
//    switches (~750 ns, Fig. 7) but freeing the core;
//  * fixed spin [Karlin et al.] -- spin for a fixed budget (e.g. 5 us),
//    then fall back to blocking: the switch is avoided whenever the event
//    arrives within the budget, amortized otherwise.
//
// The flag's cache line is tracked: when the setter runs on a different
// core than the waiter, both the set and the final read pay the inter-core
// line transfer -- the effect Fig. 8 measures.
#pragma once

#include <cstdint>
#include <list>
#include <string>

#include "simcore/time.hpp"
#include "simsan/simsan.hpp"
#include "simmachine/machine.hpp"
#include "simthread/scheduler.hpp"

namespace pm2::sync {

class CompletionFlag {
 public:
  explicit CompletionFlag(mth::Scheduler& sched, std::string name = "flag");

  CompletionFlag(const CompletionFlag&) = delete;
  CompletionFlag& operator=(const CompletionFlag&) = delete;

  /// Unpriced host-side peek (for assertions and control flow).
  bool is_set() const { return done_; }

  /// Priced check from the active context (one flag read).
  bool test();

  /// test()'s first half: touch the flag's line from the active context and
  /// return the transfer price for the caller to charge. test() charges it,
  /// then spin_retry, then reads the flag (is_set()); a spin loop's steps
  /// (mth::SpinSteps) replay it in those pieces.
  sim::Time touch_for_test();

  /// Mark complete and release every waiter. Any context, including hooks
  /// (never blocks; wakes issued from a hook are deferred by the
  /// scheduler); idempotent.
  void set();

  /// Re-arm for reuse. Only valid with no waiters registered.
  void reset();

  /// The three waiting policies (nm::WaitMode picks one): spin until set;
  /// block at once; spin for @p spin_budget, then block.
  void wait_busy();
  void wait_passive();
  void wait_fixed_spin(sim::Time spin_budget);

  /// Diagnostics: waits that ended up blocking (passive or spun out).
  std::uint64_t blocked_waits() const { return blocked_waits_; }

 private:
  enum class Mode { kSpin, kBlocked };
  struct Waiter {
    mth::Thread* t;
    Mode mode;
  };

  mth::Scheduler& sched_;
  std::string name_;
  mach::CacheLine line_;
  bool done_ = false;
  std::list<Waiter> waiters_;
  std::uint64_t blocked_waits_ = 0;
  san::SlotTag san_tag_;
};

}  // namespace pm2::sync
