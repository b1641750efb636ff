#include "sync/spinlock.hpp"

#include <algorithm>
#include <cassert>

#include "simexplore/ctl.hpp"
#include "simsan/context.hpp"

namespace pm2::sync {

SpinLock::SpinLock(mth::Scheduler& sched, std::string name)
    : sched_(sched), name_(std::move(name)) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string& node = sched_.machine().name();
  m_acquisitions_ =
      reg.counter({"sync", node, -1, name_ + ".acquisitions"});
  m_contentions_ = reg.counter({"sync", node, -1, name_ + ".contentions"});
  m_hold_ns_ = reg.counter({"sync", node, -1, name_ + ".hold_ns"});
}

void SpinLock::lock() {
  auto& ctx = mth::ExecContext::current();
  ctx.touch(line_);
  ctx.charge(sched_.costs().spin_acquire);
  if (!held_) {
    held_ = true;
    note_acquired(/*blocking=*/true);
    return;
  }
  // Contended: actively spin until a release lets us in. A release wakes
  // the oldest spinner for a retry, but the retry pays the re-check period
  // plus a line transfer -- a local thread re-acquiring immediately wins
  // that race (barging), unless we have been spinning beyond the fairness
  // horizon, in which case unlock() hands the lock over directly.
  if (!ctx.can_block()) {
    // Under analysis this becomes a reported finding and the acquisition is
    // abandoned (the caller does not get the lock) so the run stays alive.
    if (san::violation("spin-in-hook", "SpinLock::lock contended on \"" +
                                           name_ + "\" in hook context")) {
      return;
    }
    assert(false &&
           "spinlock contention outside a thread context; use try_lock()");
    return;
  }
  ++contentions_;
  m_contentions_.inc();
  mth::Thread* self = sched_.current_thread();
  const sim::Time park_start = sched_.engine().now();
  int failed_retries = 0;
  for (;;) {
    // With other threads queued on this core, parking could starve the
    // holder itself: spin-then-yield instead (what preemptible spinlock
    // users must do when threads outnumber cores). After
    // spin_backoff_onset consecutive failed retries the re-check period
    // doubles, bounded by spin_backoff_cap: oversubscribed acquirers that
    // keep losing retreat exponentially, which breaks the deterministic
    // limit cycle where a fixed retry period lets the same set of threads
    // starve forever (EXPERIMENTS.md "progress collapse").
    if (sched_.runqueue_length(self->core()) > 0) {
      const auto& costs = sched_.costs();
      sim::Time pause = costs.spin_retry;
      if (failed_retries >= costs.spin_backoff_onset) {
        int doublings = failed_retries - costs.spin_backoff_onset + 1;
        while (doublings-- > 0 && pause < costs.spin_backoff_cap) pause *= 2;
        pause = std::min(pause, costs.spin_backoff_cap);
      }
      ctx.charge(pause);
      sched_.yield();
      ctx.touch(line_);
      ctx.charge(costs.spin_acquire);
      if (granted_ == self) {
        granted_ = nullptr;
        assert(held_);
        note_acquired(/*blocking=*/true);
        return;
      }
      if (!held_) {
        held_ = true;
        note_acquired(/*blocking=*/true);
        return;
      }
      ++failed_retries;
      continue;
    }
    failed_retries = 0;
    spinners_.push_back(Waiter{self, park_start});
    sched_.spin_park();
    if (granted_ == self) {
      // Direct handoff: held_ stayed true on our behalf.
      granted_ = nullptr;
      assert(held_);
      ctx.touch(line_);
      note_acquired(/*blocking=*/true);
      return;
    }
    // Woken for a retry window: pay the attempt and re-check.
    ctx.touch(line_);
    ctx.charge(sched_.costs().spin_acquire);
    if (!held_) {
      held_ = true;
      note_acquired(/*blocking=*/true);
      return;
    }
  }
}

bool SpinLock::try_lock() {
  auto& ctx = mth::ExecContext::current();
  ctx.touch(line_);
  ctx.charge(sched_.costs().spin_acquire);
  if (held_) return false;
  held_ = true;
  note_acquired(/*blocking=*/false);
  return true;
}

void SpinLock::san_acquired(bool blocking) {
  san::acquired(san_tag_, name_, blocking);
}

void SpinLock::san_released() {
  san::released(san_tag_, name_);
}

void SpinLock::unlock() {
  assert(held_ && "unlock of a free SpinLock");
  if (san::on()) san_released();
  if (acquired_at_ >= 0) {
    m_hold_ns_.inc(
        static_cast<std::uint64_t>(sched_.engine().now() - acquired_at_));
    acquired_at_ = -1;
  }
  mth::charge_if_ctx(sched_.costs().spin_release);
  if (!spinners_.empty()) {
    // Schedule-exploration choice point: which parked spinner this release
    // wakes (or hands off to). Default 0 keeps the FIFO order.
    if (xpl::on() && spinners_.size() > 1) {
      xpl::Fingerprint fp;
      fp.mix_str(name_);
      for (const Waiter& s : spinners_) fp.mix(s.t->id());
      const int i =
          xpl::pick(xpl::SiteKind::kSpinHandoff,
                    static_cast<int>(spinners_.size()), fp.value());
      if (i > 0) {
        const auto b = spinners_.begin();
        std::rotate(b, b + i, b + i + 1);
      }
    }
    Waiter w = spinners_.front();
    spinners_.pop_front();
    const sim::Time waited = sched_.engine().now() - w.park_start;
    if (waited >= sched_.costs().spin_fair_threshold) {
      // Starved long enough: direct handoff, lock stays held on its behalf.
      granted_ = w.t;
      sched_.spin_unpark(w.t, sched_.costs().spin_retry);
      return;
    }
    // Free the lock and give the spinner a retry window; a local barger
    // may still beat it.
    held_ = false;
    sched_.spin_unpark(w.t, sched_.costs().spin_retry);
    return;
  }
  held_ = false;
}

}  // namespace pm2::sync
