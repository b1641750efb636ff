#include "simcore/engine.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <stdexcept>
#include <thread>

namespace pm2::sim {

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

void Engine::set_mailbox_capacity(std::size_t cap) {
  mailbox_cap_ = std::max<std::size_t>(1, cap);
}

EventHandle Engine::schedule_at(Time when, EventQueue::Callback cb) {
  Partition& p = part(active_partition());
  if (when < p.now) {
    throw std::logic_error("Engine::schedule_at: time " + format_time(when) +
                           " is in the past (now = " + format_time(p.now) +
                           ")");
  }
  return p.queue.schedule(when, std::move(cb));
}

EventHandle Engine::schedule_after(Time delay, EventQueue::Callback cb) {
  assert(delay >= 0 && "negative delay");
  return schedule_at(now() + delay, std::move(cb));
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
  if (box.size() >= mailbox_cap_ && !s.window_abort) {
    ++s.overflows;
    s.window_abort = true;
  }
}

bool Engine::cancel(EventHandle& h) {
  return h.queue_ != nullptr && h.queue_->cancel(h);
}

bool Engine::step_partition(Partition& p) {
  if (p.queue.empty()) return false;
  auto [when, cb] = p.queue.pop();
  assert(when >= p.now && "event queue went backwards");
  p.now = when;
  ++p.executed;
  cb();
  return true;
}

void Engine::run() {
  stopped_.store(false, std::memory_order_relaxed);
  if (num_partitions() == 1) {
    Partition& p = part(0);
    p.advance_limit = kTimeInfinity;
    while (!stopped() && step_partition(p)) {
    }
    p.advance_limit = -1;
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
    p.advance_limit = deadline;
    while (!stopped() && p.queue.next_time() <= deadline &&
           step_partition(p)) {
    }
    p.advance_limit = -1;
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

void Engine::run_window(int idx, Time tmin, Time horizon, Time deadline) {
  Partition& p = part(idx);
  p.window_floor = tmin;
  p.window_abort = false;
  // The window's last executable time, shared with try_advance.
  p.advance_limit = std::min(horizon - 1, deadline);
  const int prev = tls_partition;
  tls_partition = idx;
  while (!p.window_abort && p.queue.next_time() <= p.advance_limit) {
    step_partition(p);
  }
  tls_partition = prev;
  p.advance_limit = -1;
}

void Engine::run_windows(Time deadline) {
  const int n = num_partitions();
  const int w = std::min(workers_, n);
  struct alignas(64) MinSlot {
    Time t = kTimeInfinity;
  };
  std::vector<MinSlot> local_min(static_cast<std::size_t>(w));
  std::barrier<> bar(w);

  // Partition p always runs on worker p % w, so a partition's fibers never
  // migrate between host threads within a run. Every worker recomputes the
  // same T_min from the shared slots after the barrier, so all of them take
  // the same break decision -- nobody can be left waiting on the barrier.
  // Worker 0 is the calling thread; at w = 1 it is the only one.
  auto worker = [&](int id) {
    for (;;) {
      // Deliver everything the previous window posted before looking at
      // the heaps: T_min must see cross events too.
      Time lm = kTimeInfinity;
      for (int p = id; p < n; p += w) {
        drain_mailboxes_for(p);
        lm = std::min(lm, part(p).queue.next_time());
      }
      local_min[static_cast<std::size_t>(id)].t = lm;
      bar.arrive_and_wait();
      Time tmin = kTimeInfinity;
      for (int i = 0; i < w; ++i) {
        tmin = std::min(tmin, local_min[static_cast<std::size_t>(i)].t);
      }
      if (stopped() || tmin == kTimeInfinity || tmin > deadline) break;
      const Time horizon = window_horizon(tmin);
      if (id == 0) ++windows_;
      for (int p = id; p < n; p += w) run_window(p, tmin, horizon, deadline);
      bar.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(w - 1));
  for (int id = 1; id < w; ++id) threads.emplace_back(worker, id);
  worker(0);
  for (auto& t : threads) t.join();
}

}  // namespace pm2::sim
