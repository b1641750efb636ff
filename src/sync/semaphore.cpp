#include "sync/semaphore.hpp"

#include <cassert>

#include "simsan/context.hpp"

namespace pm2::sync {

Semaphore::Semaphore(mth::Scheduler& sched, int initial, std::string name)
    : sched_(sched), name_(std::move(name)), count_(initial) {
  assert(initial >= 0);
}

void Semaphore::acquire() {
  auto& ctx = mth::ExecContext::current();
  if (!ctx.can_block()) {
    if (san::violation("blocking-acquire-in-hook",
                       "Semaphore::acquire on \"" + name_ +
                           "\" from hook context")) {
      return;  // abandoned: no token taken
    }
    assert(false && "Semaphore::acquire in a non-blocking context");
    return;
  }
  san::block_point("Semaphore::acquire");
  ctx.touch(line_);
  ctx.charge(sched_.costs().sem_fast_path);
  if (count_ > 0) {
    --count_;
    if (san::on()) san::hb_acquire(san_tag_, name_);
    return;
  }
  // Passive wait: pay the switch out, block, and pay the switch back in
  // when released. (Marcel's blocking primitives go through the scheduler
  // even when the core would otherwise idle.)
  ++blocked_acquires_;
  ctx.charge(sched_.costs().context_switch);
  if (count_ > 0) {
    // A release() landed while we were paying the switch-out. Abort the
    // block (the switch cost is still paid, as on a real machine).
    --count_;
    if (san::on()) san::hb_acquire(san_tag_, name_);
    return;
  }
  // Mesa discipline: release() marks our token before waking us, and we
  // re-check on every wake (stray wake permits are harmless).
  Waiter w{sched_.current_thread(), false};
  waiters_.push_back(&w);
  while (!w.granted) sched_.block_current();
  ctx.charge(sched_.costs().context_switch);
  ctx.touch(line_);
  if (san::on()) san::hb_acquire(san_tag_, name_);
}

bool Semaphore::try_acquire() {
  auto& ctx = mth::ExecContext::current();
  ctx.touch(line_);
  ctx.charge(sched_.costs().sem_fast_path);
  if (count_ == 0) return false;
  --count_;
  if (san::on()) san::hb_acquire(san_tag_, name_);
  return true;
}

void Semaphore::release() {
  if (san::on()) san::hb_release(san_tag_, name_);
  mth::charge_if_ctx(sched_.costs().sem_fast_path);
  mth::touch_if_ctx(line_);
  if (!waiters_.empty()) {
    Waiter* w = waiters_.front();
    waiters_.pop_front();
    w->granted = true;  // direct token handoff
    sched_.wake(w->t);
    return;
  }
  ++count_;
}

}  // namespace pm2::sync
