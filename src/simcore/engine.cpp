#include "simcore/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pm2::sim {

namespace {

/// The window loop's barrier. A window lasts microseconds of host time, so a
/// waiter that parks at once pays a futex wake-up on every window; one that
/// only spins starves the workers it waits for when the host has fewer CPUs
/// than workers. So a waiter spins, then yields, then parks, each phase with
/// a constant budget. The last worker to arrive runs the completion before
/// it releases the others: what it writes is visible to every worker.
class WindowBarrier {
 public:
  explicit WindowBarrier(int parties) : parties_(parties) {}

  /// Arrive and wait for every party. The last to arrive runs @p complete.
  /// Adds the host nanoseconds this call spent waiting to @p wait_ns; the
  /// clock is read only when the call has to wait.
  template <class Complete>
  void arrive_and_wait(Complete&& complete, std::uint64_t& wait_ns) {
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      complete();
      phase_.store(phase + 1, std::memory_order_release);
      phase_.notify_all();
      return;
    }
    auto released = [&] {
      return phase_.load(std::memory_order_acquire) != phase;
    };
    if (released()) return;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; !released(); ++i) {
      if (i < kSpins) {
        cpu_relax();
      } else if (i < kSpins + kYields) {
        std::this_thread::yield();
      } else {
        phase_.wait(phase, std::memory_order_acquire);
      }
    }
    wait_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

 private:
  static constexpr int kSpins = 64;
  static constexpr int kYields = 2000;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
  }

  const int parties_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};
};

/// The limit of a single-partition run's loop, shared with try_advance and
/// take_next, for as long as the loop runs: closed again however it ends,
/// an event's throw included, so nothing advances in place after the run.
class RunLimit {
 public:
  RunLimit(Time& limit, std::uint64_t& loops, Time deadline) : limit_(limit) {
    limit_ = deadline;
    ++loops;
  }
  ~RunLimit() { limit_ = -1; }
  RunLimit(const RunLimit&) = delete;
  RunLimit& operator=(const RunLimit&) = delete;

 private:
  Time& limit_;
};

}  // namespace

Engine::Engine() {
  parts_.push_back(std::make_unique<Partition>());
  mail_.resize(1);
}

Engine::~Engine() = default;

Engine::PartitionScope::PartitionScope(Engine& engine, int p)
    : prev_(tls_partition) {
  assert(p >= 0 && p < engine.num_partitions() && "partition out of range");
  (void)engine;
  tls_partition = p;
}

void Engine::configure_partitions(int n, Time lookahead) {
  if (n < 1) {
    throw std::invalid_argument("Engine::configure_partitions: n must be >= 1");
  }
  if (num_partitions() != 1 || part(0).queue.total_scheduled() != 0) {
    throw std::logic_error(
        "Engine::configure_partitions: must be called at most once, before "
        "any event is scheduled");
  }
  if (n == 1) return;
  if (lookahead <= 0) {
    throw std::invalid_argument(
        "Engine::configure_partitions: lookahead must be positive");
  }
  lookahead_ = lookahead;
  parts_.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i < n; ++i) parts_.push_back(std::make_unique<Partition>());
  mail_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

void Engine::set_workers(int w) { workers_ = std::max(1, w); }

void Engine::throw_in_past(Time when, Time now) {
  throw std::logic_error("Engine::schedule_at: time " + format_time(when) +
                         " is in the past (now = " + format_time(now) + ")");
}

void Engine::schedule_cross(int dst, Time when, EventQueue::Callback cb) {
  const int src = active_partition();
  if (num_partitions() == 1 || dst == src) {
    schedule_at(when, std::move(cb));
    return;
  }
  assert(dst >= 0 && dst < num_partitions() && "partition out of range");
  Partition& s = part(src);
  assert(when >= s.window_floor + lookahead_ &&
         "cross-partition event violates the lookahead contract");
  auto& box = mailbox(src, dst);
  box.push_back(CrossEvent{when, s.out_seq++, src, std::move(cb)});
  ++s.cross_sent;
  if (box.size() >= kMailboxCapacity && !s.window_abort) {
    ++s.overflows;
    s.window_abort = true;
  }
}

bool Engine::cancel(EventHandle& h) {
  return h.queue_ != nullptr && h.queue_->cancel(h);
}

bool Engine::step_partition(Partition& p) {
  if (p.queue.empty()) return false;
  p.queue.run_next([&p](Time when) {
    assert(when >= p.now && "event queue went backwards");
    p.now = when;
    ++p.executed;
  });
  return true;
}

void Engine::run() {
  stopped_.store(false, std::memory_order_relaxed);
  if (num_partitions() == 1) {
    Partition& p = part(0);
    const RunLimit limit(p.advance_limit, p.loops, kTimeInfinity);
    while (!stopped() && step_partition(p)) {
    }
    return;
  }
  run_windows(kTimeInfinity);
  if (!stopped()) {
    // Clean drain: join the clocks so now() reports the cluster-wide finish
    // time from every partition's point of view.
    Time tmax = 0;
    for (auto& p : parts_) tmax = std::max(tmax, p->now);
    for (auto& p : parts_) p->now = tmax;
  }
}

void Engine::run_until(Time deadline) {
  stopped_.store(false, std::memory_order_relaxed);
  if (num_partitions() == 1) {
    Partition& p = part(0);
    {
      const RunLimit limit(p.advance_limit, p.loops, deadline);
      while (!stopped() && p.queue.next_time() <= deadline &&
             step_partition(p)) {
      }
    }
    if (!stopped() && p.now < deadline) p.now = deadline;
    return;
  }
  run_windows(deadline);
  if (!stopped()) {
    for (auto& p : parts_) {
      if (p->now < deadline) p->now = deadline;
    }
  }
}

std::size_t Engine::pending_events() const {
  std::size_t n = 0;
  for (auto& p : parts_) n += p->queue.size();
  return n;
}

std::uint64_t Engine::events_executed() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->executed;
  return n;
}

std::uint64_t Engine::cross_events() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->cross_sent;
  return n;
}

std::uint64_t Engine::mailbox_overflows() const {
  std::uint64_t n = 0;
  for (auto& p : parts_) n += p->overflows;
  return n;
}

Time Engine::window_horizon(Time tmin) const {
  return tmin > kTimeInfinity - lookahead_ ? kTimeInfinity : tmin + lookahead_;
}

void Engine::drain_mailboxes_for(int dst) {
  Partition& d = part(dst);
  auto& scratch = d.inbox_scratch;
  scratch.clear();
  const int n = num_partitions();
  for (int src = 0; src < n; ++src) {
    auto& box = mailbox(src, dst);
    for (auto& e : box) scratch.push_back(std::move(e));
    box.clear();
  }
  // Canonical merge order: time, then source partition, then per-source send
  // sequence. Independent of which host thread ran the sender and of the
  // drain's gather order, so the target heap's tie-break sequence -- and
  // with it the whole downstream schedule -- is reproducible.
  std::sort(scratch.begin(), scratch.end(),
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (auto& e : scratch) {
    assert(e.when >= d.now && "cross event arrived in the past");
    d.queue.schedule(e.when, std::move(e.cb));
  }
  scratch.clear();
}

bool Engine::run_window(int idx, Time tmin, Time horizon, Time deadline) {
  Partition& p = part(idx);
  p.window_floor = tmin;
  p.window_abort = false;
  // The window's last executable time, shared with try_advance.
  p.advance_limit = std::min(horizon - 1, deadline);
  ++p.loops;
  const int prev = tls_partition;
  tls_partition = idx;
  try {
    while (!p.window_abort && p.queue.next_time() <= p.advance_limit) {
      step_partition(p);
    }
  } catch (...) {
    p.failure = std::current_exception();
  }
  tls_partition = prev;
  p.advance_limit = -1;
  return p.failure == nullptr;
}

void Engine::run_windows(Time deadline) {
  const int n = num_partitions();
  const int w = std::min(workers_, n);
  // What each worker publishes at the barrier, on its own cache line.
  struct alignas(64) WorkerSlot {
    Time next = kTimeInfinity;  ///< earliest pending event of its partitions
    bool failed = false;        ///< an event of its partitions threw
    std::uint64_t wait_ns = 0;
  };
  std::vector<WorkerSlot> slots(static_cast<std::size_t>(w));
  WindowBarrier bar(w);
  // The next window, decided once per window by the last worker to reach
  // the first barrier, from the slots, the stop flag and the failure flags
  // as they stand when every worker has arrived. No worker reads a live
  // flag, so all of them take the same decision whenever stop() was called.
  Time tmin = kTimeInfinity;
  bool go = false;
  auto decide = [&] {
    tmin = kTimeInfinity;
    bool failed = false;
    for (const WorkerSlot& s : slots) {
      tmin = std::min(tmin, s.next);
      failed = failed || s.failed;
    }
    go = !failed && !stopped() && tmin != kTimeInfinity && tmin <= deadline;
    if (go) ++windows_;
  };

  // Partition p always runs on worker p % w, so a partition's fibers never
  // migrate between host threads within a run. A partition whose event
  // throws ends its window there; the others finish theirs, and the next
  // decision ends the loop. Worker 0 is the calling thread; at w = 1 it is
  // the only one.
  auto worker = [&](int id) {
    WorkerSlot& mine = slots[static_cast<std::size_t>(id)];
    for (;;) {
      // Deliver everything the previous window posted before looking at
      // the heaps: T_min must see cross events too.
      Time next = kTimeInfinity;
      for (int p = id; p < n; p += w) {
        drain_mailboxes_for(p);
        next = std::min(next, part(p).queue.next_time());
      }
      mine.next = next;
      bar.arrive_and_wait(decide, mine.wait_ns);
      if (!go) break;
      const Time horizon = window_horizon(tmin);
      for (int p = id; p < n; p += w) {
        if (!run_window(p, tmin, horizon, deadline)) mine.failed = true;
      }
      bar.arrive_and_wait([] {}, mine.wait_ns);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(w - 1));
  for (int id = 1; id < w; ++id) threads.emplace_back(worker, id);
  worker(0);
  for (auto& t : threads) t.join();
  for (const WorkerSlot& s : slots) barrier_wait_ns_ += s.wait_ns;

  // Rethrow the failure of the lowest-index partition, as a run on one
  // worker would see it first.
  std::exception_ptr failure;
  for (auto& p : parts_) {
    if (failure == nullptr) failure = p->failure;
    p->failure = nullptr;
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

}  // namespace pm2::sim
