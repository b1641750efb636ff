#include "sync/completion_flag.hpp"

#include <cassert>

#include "simsan/context.hpp"

namespace pm2::sync {

CompletionFlag::CompletionFlag(mth::Scheduler& sched, std::string name)
    : sched_(sched), name_(std::move(name)) {}

bool CompletionFlag::test() {
  auto& ctx = mth::ExecContext::current();
  ctx.charge(touch_for_test());
  ctx.charge(sched_.costs().spin_retry);
  return done_;
}

sim::Time CompletionFlag::touch_for_test() {
  auto& ctx = mth::ExecContext::current();
  return ctx.machine().touch_line(line_, ctx.core());
}

void CompletionFlag::set() {
  if (done_) return;
  // simsan: the set publishes the setter's history; every wait return path
  // observes it (set-before-wait included, where no wake edge exists).
  if (san::on()) san::hb_release(san_tag_, name_);
  done_ = true;
  // The completion write moves the line to the setter.
  mth::touch_if_ctx(line_);
  for (Waiter& w : waiters_) {
    if (w.mode == Mode::kSpin) {
      sched_.spin_unpark(w.t, sched_.costs().spin_retry);
    } else {
      sched_.wake(w.t);
    }
  }
  // Entries are erased by the waiters themselves as they resume.
}

void CompletionFlag::reset() {
  assert(waiters_.empty() && "reset with waiters registered");
  done_ = false;
}

void CompletionFlag::wait_busy() {
  auto& ctx = mth::ExecContext::current();
  assert(ctx.can_block() && "wait on a flag outside a thread context");
  ctx.touch(line_);
  ctx.charge(sched_.costs().spin_retry);
  if (done_) {
    if (san::on()) san::hb_acquire(san_tag_, name_);
    return;
  }
  mth::Thread* self = sched_.current_thread();
  while (!done_) {
    if (sched_.runqueue_length(self->core()) > 0) {
      // Other threads queued on this core: spin-then-yield so the spinner
      // cannot starve whoever would complete the flag.
      ctx.charge(sched_.costs().spin_retry);
      sched_.yield();
      continue;
    }
    auto it = waiters_.insert(waiters_.end(), Waiter{self, Mode::kSpin});
    sched_.spin_park();
    waiters_.erase(it);
  }
  ctx.touch(line_);  // pay the transfer from the setter's core
  if (san::on()) san::hb_acquire(san_tag_, name_);
}

void CompletionFlag::wait_passive() {
  auto& ctx = mth::ExecContext::current();
  assert(ctx.can_block() && "wait on a flag outside a thread context");
  san::block_point("CompletionFlag::wait_passive");
  ctx.touch(line_);
  ctx.charge(sched_.costs().sem_fast_path);
  if (done_) {
    if (san::on()) san::hb_acquire(san_tag_, name_);
    return;
  }
  ++blocked_waits_;
  auto it = waiters_.insert(waiters_.end(),
                            Waiter{sched_.current_thread(), Mode::kBlocked});
  ctx.charge(sched_.costs().context_switch);
  // Mesa discipline: re-check on every wake; stray permits re-loop.
  while (!done_) sched_.block_current();
  waiters_.erase(it);
  ctx.charge(sched_.costs().context_switch);
  ctx.touch(line_);
  if (san::on()) san::hb_acquire(san_tag_, name_);
}

void CompletionFlag::wait_fixed_spin(sim::Time spin_budget) {
  auto& ctx = mth::ExecContext::current();
  assert(ctx.can_block() && "wait on a flag outside a thread context");
  assert(spin_budget >= 0);
  ctx.touch(line_);
  ctx.charge(sched_.costs().spin_retry);
  if (done_) {
    if (san::on()) san::hb_acquire(san_tag_, name_);
    return;
  }

  mth::Thread* self = sched_.current_thread();
  auto it = waiters_.insert(waiters_.end(), Waiter{self, Mode::kSpin});
  // Spin for the budget; if the flag is still unset, fall back to blocking.
  auto timeout = sched_.engine().schedule_after(spin_budget, [this, self] {
    if (!done_ && sched_.spin_parked(self)) sched_.spin_unpark(self, 0);
  });
  sched_.spin_park();
  sched_.engine().cancel(timeout);
  if (done_) {
    waiters_.erase(it);
    ctx.touch(line_);
    if (san::on()) san::hb_acquire(san_tag_, name_);
    return;
  }
  // Spun out: block. The switch cost is now a small fraction of the total
  // wait, which is the whole point of the fixed-spin algorithm.
  san::block_point("CompletionFlag::wait_fixed_spin(block)");
  ++blocked_waits_;
  it->mode = Mode::kBlocked;
  ctx.charge(sched_.costs().context_switch);
  while (!done_) sched_.block_current();
  waiters_.erase(it);
  ctx.charge(sched_.costs().context_switch);
  ctx.touch(line_);
  if (san::on()) san::hb_acquire(san_tag_, name_);
}

}  // namespace pm2::sync
