// Model-based fuzz: EventQueue must behave exactly like a reference
// implementation (sorted multimap with tombstones) under random schedules,
// cancellations and pops.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/random.hpp"

namespace pm2::sim {
namespace {

class ReferenceQueue {
 public:
  int schedule(Time when) {
    const int id = next_id_++;
    entries_.emplace(std::pair(when, id), true);
    ++live_;
    return id;
  }
  bool cancel(int id) {
    for (auto& [key, alive] : entries_) {
      if (key.second == id && alive) {
        alive = false;
        --live_;
        return true;
      }
    }
    return false;
  }
  bool empty() const { return live_ == 0; }
  Time next_time() const {
    for (const auto& [key, alive] : entries_) {
      if (alive) return key.first;
    }
    return kTimeInfinity;
  }
  /// Pops the earliest live entry; returns its id.
  std::pair<Time, int> pop() {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second) {
        auto key = it->first;
        entries_.erase(it);
        --live_;
        return key;
      }
    }
    ADD_FAILURE() << "pop on empty reference queue";
    return {0, -1};
  }

 private:
  // (time, seq) -> alive; map iteration order == priority order because
  // ids increase monotonically (deterministic FIFO tie-break).
  std::map<std::pair<Time, int>, bool> entries_;
  int next_id_ = 0;
  int live_ = 0;
};

class QueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  EventQueue q;
  ReferenceQueue ref;
  std::map<int, EventHandle> handles;  // ref id -> real handle
  std::map<int, int> fired;            // ref id -> fire count
  int next_expected = -1;

  Time clock = 0;
  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 4) {
      // Schedule at a (possibly duplicate) future time.
      const Time when = clock + rng.uniform_int(0, 50);
      const int id = ref.schedule(when);
      handles[id] = q.schedule(when, [&fired, id, &next_expected] {
        ++fired[id];
        EXPECT_EQ(id, next_expected) << "fired out of order";
      });
    } else if (op <= 6) {
      // Cancel a random known id.
      if (!handles.empty()) {
        auto it = handles.begin();
        std::advance(it, static_cast<long>(rng.next_below(handles.size())));
        EXPECT_EQ(q.cancel(it->second), ref.cancel(it->first));
      }
    } else {
      // Pop.
      ASSERT_EQ(q.empty(), ref.empty());
      if (!ref.empty()) {
        auto [when, id] = ref.pop();
        ASSERT_EQ(q.next_time(), when);
        next_expected = id;
        Time qt = -1;
        q.run_next([&qt](Time t) { qt = t; });
        ASSERT_EQ(qt, when);
        ASSERT_GE(when, clock);
        clock = when;
        EXPECT_EQ(fired[id], 1);
      }
    }
    ASSERT_EQ(q.size(), [&] {
      // Count reference live entries.
      std::size_t n = 0;
      ReferenceQueue copy = ref;  // cheap enough at this size
      while (!copy.empty()) {
        copy.pop();
        ++n;
      }
      return n;
    }());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz,
                         ::testing::Values(11, 23, 37, 59, 71, 97));

class CancelHeavyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CancelHeavyFuzz, AdversarialCancelChurn) {
  // Cancel-dominated schedule designed to stress slot reuse and compaction:
  // every handle ever issued is retained and randomly re-cancelled (most are
  // stale by then, many with their slot already reused by a newer event),
  // while pops interleave. Checks the reference model, the dead-entry bound
  // and that stale handles never affect the slot's new occupant.
  Rng rng(GetParam());
  EventQueue q;
  ReferenceQueue ref;
  std::vector<std::pair<int, EventHandle>> all;  // every (id, handle) ever
  Time clock = 0;

  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 3) {
      // Schedule; adversarial times hop between near and far future so
      // entries split across the monotone lane and the heap.
      const Time when = clock + (rng.uniform_int(0, 1) != 0
                                     ? rng.uniform_int(0, 20)
                                     : rng.uniform_int(500, 1000));
      const int id = ref.schedule(when);
      all.emplace_back(id, q.schedule(when, [] {}));
    } else if (op <= 7) {
      // Cancel any handle ever issued -- live, fired, cancelled or stale
      // with a reused slot. Result must match the reference exactly.
      if (!all.empty()) {
        auto& [id, h] = all[rng.next_below(all.size())];
        ASSERT_EQ(q.cancel(h), ref.cancel(id));
        ASSERT_FALSE(h.pending());
      }
    } else if (!ref.empty()) {
      auto [when, id] = ref.pop();
      ASSERT_EQ(q.next_time(), when);
      Time qt = -1;
      q.run_next([&qt](Time t) { qt = t; });
      ASSERT_EQ(qt, when);
      clock = when;
    }
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_LE(q.dead_entries(),
              std::max(EventQueue::kCompactFloor, q.size()))
        << "compaction bound violated at step " << step;
  }
  // Drain and cross-check the survivors' order.
  while (!ref.empty()) {
    auto [when, id] = ref.pop();
    Time qt = -1;
    q.run_next([&qt](Time t) { qt = t; });
    ASSERT_EQ(qt, when);
  }
  EXPECT_TRUE(q.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelHeavyFuzz,
                         ::testing::Values(3, 13, 29, 43, 67, 89));

}  // namespace
}  // namespace pm2::sim
