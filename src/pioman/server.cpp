#include "pioman/server.hpp"

#include <algorithm>
#include <cassert>

#include "simsan/context.hpp"

namespace pm2::piom {

PollSource::~PollSource() = default;

Server::Server(mth::Scheduler& sched)
    : sched_(sched), list_lock_(sched, "pioman-list") {
  auto& reg = obs::MetricsRegistry::global();
  const std::string& node = sched_.machine().name();
  m_passes_ = reg.counter({"pioman", node, -1, "poll_passes"});
  m_skipped_passes_ = reg.counter({"pioman", node, -1, "skipped_passes"});
  m_poll_interval_ns_ = reg.histogram({"pioman", node, -1, "poll_interval_ns"});
}

Server::~Server() { remove_hooks(); }

void Server::register_source(PollSource* src) {
  SIMSAN_ACCESS(san_sources_);
  sources_.push_back(src);
  notify_new_work();
}

void Server::unregister_source(PollSource* src) {
  SIMSAN_ACCESS(san_sources_);
  std::erase(sources_, src);
}

bool Server::has_pending(int core) const {
  if (poll_core_ >= 0 && core >= 0 && core != poll_core_) return false;
  for (const PollSource* s : sources_) {
    if (s->pending()) return true;
  }
  return false;
}

bool Server::poll_once(mth::ExecContext& ctx) {
  ++passes_;
  m_passes_.inc();
  if (obs::MetricsRegistry::global().enabled()) {
    const sim::Time now = sched_.engine().now();
    if (last_pass_at_ >= 0 && now > last_pass_at_) {
      m_poll_interval_ns_.observe(
          static_cast<std::uint64_t>(now - last_pass_at_));
    }
    last_pass_at_ = now;
  }
  // Internal request-list management (Fig. 6's overhead).
  ctx.charge(sched_.costs().pioman_pass);
  // The server's lists are protected by a lock that hook/tasklet contexts
  // may only try: skipping a pass is always safe (someone else is polling).
  if (!list_lock_.try_lock()) {
    ++skipped_passes_;
    m_skipped_passes_.inc();
    return false;
  }
  bool progressed = false;
  SIMSAN_ACCESS_RO(san_sources_);  // iteration is read-only, under list_lock_
  for (PollSource* s : sources_) {
    if (s->poll(ctx)) progressed = true;
  }
  list_lock_.unlock();
  if (progressed) {
    // Unlink satisfied requests from the internal lists and signal waiters.
    ctx.charge(sched_.costs().pioman_completion);
  }
  return progressed;
}

void Server::enable_hooks() {
  if (hooks_enabled()) return;
  auto run = [this](mth::HookContext& hctx) {
    if (!has_pending(hctx.core())) return;
    poll_once(hctx);
  };
  auto want = [this](int core) { return has_pending(core); };
  idle_hook_id_ = sched_.add_idle_hook(mth::Hook{run, want});
  switch_hook_id_ = sched_.add_switch_hook(mth::Hook{run, nullptr});
  timer_hook_id_ = sched_.add_timer_hook(mth::Hook{run, nullptr});
}

void Server::remove_hooks() {
  if (!hooks_enabled()) return;
  sched_.remove_idle_hook(idle_hook_id_);
  sched_.remove_switch_hook(switch_hook_id_);
  sched_.remove_timer_hook(timer_hook_id_);
  idle_hook_id_ = switch_hook_id_ = timer_hook_id_ = -1;
}

}  // namespace pm2::piom
