// pm2sim -- PIOMan: the I/O event manager.
//
// PIOMan decouples "what to poll" (registered poll sources, in practice the
// NewMadeleine progression function) from "when to poll" (scheduler hooks:
// idle cores, context switches, timer ticks -- plus explicit passes from
// waiting functions). This is the paper's Sec. 3.3/4 machinery.
//
// Each pass through the server costs `pioman_pass` (internal request-list
// management) on top of whatever the sources themselves consume; Fig. 6
// measures exactly this overhead (~200 ns per one-way latency, two passes
// on the critical path).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "simsan/simsan.hpp"
#include "simthread/scheduler.hpp"
#include "sync/spinlock.hpp"

namespace pm2::piom {

/// A unit of registered progression work.
class PollSource {
 public:
  virtual ~PollSource();

  /// One bounded progression pass; charge all CPU costs to @p ctx.
  /// Returns true if any progress was made.
  virtual bool poll(mth::ExecContext& ctx) = 0;

  /// True if the source may have work (gates idle-loop re-arming).
  virtual bool pending() const = 0;
};

class Server {
 public:
  explicit Server(mth::Scheduler& sched);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  mth::Scheduler& scheduler() const { return sched_; }

  void register_source(PollSource* src);
  void unregister_source(PollSource* src);

  /// Install idle / context-switch / timer hooks into the scheduler so the
  /// server polls on every spare cycle.
  void enable_hooks();
  void remove_hooks();
  bool hooks_enabled() const { return idle_hook_id_ >= 0; }

  /// Restrict hook-driven polling to one core (-1 = any core). The Cluster
  /// binds it to nm::Config::poll_core when hooks are on.
  void bind_polling(int core) { poll_core_ = core; }

  /// One explicit pass: pay the list-management cost, take the internal
  /// lock (skipping the pass entirely if another context is already inside,
  /// as tasklet-safe code must), poll every source. Returns true if any
  /// source progressed.
  bool poll_once(mth::ExecContext& ctx);

  /// True if any source has potential work for @p core.
  bool has_pending(int core) const;

  /// Tell idle cores that new work appeared (re-arms their idle loops).
  void notify_new_work() { sched_.notify_idle_work(); }

  std::uint64_t passes() const { return passes_; }
  std::uint64_t skipped_passes() const { return skipped_passes_; }

 private:
  mth::Scheduler& sched_;
  std::vector<PollSource*> sources_;
  sync::SpinLock list_lock_;
  san::Shared san_sources_{"pioman.sources"};  ///< simsan handle for sources_
  int poll_core_ = -1;
  int idle_hook_id_ = -1;
  int switch_hook_id_ = -1;
  int timer_hook_id_ = -1;
  std::uint64_t passes_ = 0;
  std::uint64_t skipped_passes_ = 0;
  // Registry instruments, labeled (pioman, <machine>).
  obs::Counter m_passes_;
  obs::Counter m_skipped_passes_;
  obs::HistogramMetric m_poll_interval_ns_;
  sim::Time last_pass_at_ = -1;  ///< registry-only poll-interval tracking
};

}  // namespace pm2::piom
