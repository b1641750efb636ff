#include "simexplore/ctl.hpp"

namespace pm2::xpl {

const char* to_string(SiteKind k) {
  switch (k) {
    case SiteKind::kDispatch: return "dispatch";
    case SiteKind::kSpinHandoff: return "spin-handoff";
  }
  return "?";
}

Ctrl& Ctrl::global() {
  // Leaked like the simsan shard store: instrumented sites may run from
  // static destructors of worlds torn down at process exit.
  static auto* ctrl = new Ctrl();
  return *ctrl;
}

void Ctrl::begin(std::vector<int> forced) {
  forced_ = std::move(forced);
  next_step_ = 0;
  trace_.clear();
  now_fn_ = nullptr;
  stop_fn_ = nullptr;
  live_cfg_ = LivenessConfig{};
  last_progress_ = 0;
  recurrences_.clear();
  completions_ = 0;
  livelock_ = false;
  livelock_at_ = 0;
  livelock_fp_ = 0;
  active_ = true;
}

std::vector<Step> Ctrl::end() {
  active_ = false;
  // The clock/stop hooks capture the scenario's engine; drop them before
  // the caller destroys it.
  now_fn_ = nullptr;
  stop_fn_ = nullptr;
  forced_.clear();
  return std::move(trace_);
}

int Ctrl::pick(SiteKind site, int options, std::uint64_t fingerprint) {
  if (!active_) return 0;
  check_liveness(site, fingerprint);
  if (options <= 1) return 0;
  int chosen = 0;
  if (next_step_ < forced_.size()) {
    chosen = forced_[next_step_];
    // A forced choice recorded against a different option count (stale
    // token after a code change) clamps to the default rather than
    // indexing out of the caller's queue.
    if (chosen < 0 || chosen >= options) chosen = 0;
  }
  if (trace_.size() < kMaxTrace) {
    trace_.push_back(Step{site, fingerprint, options, chosen});
  }
  ++next_step_;
  return chosen;
}

void Ctrl::note_completion() {
  if (!active_) return;
  ++completions_;
  if (now_fn_) last_progress_ = now_fn_();
  recurrences_.clear();
}

void Ctrl::watch(std::function<sim::Time()> now, std::function<void()> stop,
                 LivenessConfig cfg) {
  now_fn_ = std::move(now);
  stop_fn_ = std::move(stop);
  live_cfg_ = cfg;
  last_progress_ = now_fn_ ? now_fn_() : 0;
  recurrences_.clear();
}

void Ctrl::check_liveness(SiteKind site, std::uint64_t fingerprint) {
  if (livelock_ || !now_fn_) return;
  const sim::Time now = now_fn_();
  if (now - last_progress_ < live_cfg_.horizon) return;
  // Past the horizon with zero completions: the schedule is suspect. A
  // limit cycle revisits the same scheduler states making the same
  // decisions, so the same (site, state) keys recur; one-off states from
  // a slow-but-live schedule never accumulate (and any completion wipes
  // the set).
  Fingerprint key;
  key.mix(static_cast<std::uint64_t>(site));
  key.mix(fingerprint);
  const int seen = ++recurrences_[key.value()];
  if (seen >= live_cfg_.repeats) {
    livelock_ = true;
    livelock_at_ = now;
    livelock_fp_ = key.value();
    if (stop_fn_) stop_fn_();
  }
}

}  // namespace pm2::xpl
