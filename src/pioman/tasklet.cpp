#include "pioman/tasklet.hpp"

#include <cassert>

namespace pm2::piom {

TaskletEngine::TaskletEngine(mth::Scheduler& sched) : sched_(sched) {
  m_executed_ = obs::MetricsRegistry::global().counter(
      {"pioman", sched.machine().name(), -1, "tasklet_runs"});
  queues_.resize(static_cast<std::size_t>(sched.num_cores()));
  auto run = [this](mth::HookContext& hctx) { drain(hctx); };
  auto want = [this](int core) { return pending(core); };
  idle_hook_id_ = sched_.add_idle_hook(mth::Hook{run, want});
  timer_hook_id_ = sched_.add_timer_hook(mth::Hook{run, nullptr});
}

TaskletEngine::~TaskletEngine() {
  sched_.remove_idle_hook(idle_hook_id_);
  sched_.remove_timer_hook(timer_hook_id_);
}

void TaskletEngine::schedule(Tasklet* t, int core) {
  assert(core >= 0 && core < sched_.num_cores());
  if (t->scheduled_) return;
  t->scheduled_ = true;
  // Queue insertion, cross-core signalling, and the tasklet queue line
  // moving to the scheduling core.
  mth::charge_if_ctx(sched_.costs().tasklet_schedule);
  mth::touch_if_ctx(queue_line_);
  queues_[static_cast<std::size_t>(core)].push_back(t);
  sched_.notify_idle_work();
}

void TaskletEngine::drain(mth::HookContext& ctx) {
  auto& q = queues_[static_cast<std::size_t>(ctx.core())];
  while (!q.empty()) {
    Tasklet* t = q.front();
    q.pop_front();
    // "The complex locking mechanism involved when a tasklet is invoked":
    // dispatch state, re-enable/serialization checks, queue line transfer.
    ctx.charge(sched_.costs().tasklet_invoke);
    ctx.touch(queue_line_);
    t->scheduled_ = false;
    ++t->runs_;
    ++executed_;
    m_executed_.inc();
    t->fn_(ctx);
  }
}

}  // namespace pm2::piom
