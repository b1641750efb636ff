// pm2sim -- fiber stack recycling.
//
// Every simulated thread runs on a fiber with its own stack (256 KB by
// default). Workloads that churn threads -- spawn/join loops, hybrid apps
// with per-phase workers, benchmarks constructing a fresh world per
// iteration -- would otherwise pay a large allocation plus first-touch page
// faults per spawn. The pool keeps released stacks keyed by size class and
// hands them back on the next acquire, so steady-state thread churn performs
// no stack allocations at all. A fresh stack is not zero-filled: its pages
// are committed when its fiber first touches them, and a fiber touches a
// few pages at the top of its 256 KB. So a cached stack holds only those
// pages, and the pool caches a whole world's stacks: a world built again
// finds every stack it needs and commits no page it did not have before.
//
// The pool is process-wide and, with the partitioned engine, partitions on
// different host threads spawn/retire fibers concurrently -- so the pool is
// mutex-guarded. Pool operations happen on spawn/exit, not per context
// switch, so the lock is far off the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace pm2::mth {

class StackPool {
 public:
  /// An owned stack; returned to the pool via release().
  struct Stack {
    std::unique_ptr<std::uint8_t[]> mem;
    std::size_t size = 0;

    explicit operator bool() const { return mem != nullptr; }
  };

  /// The process-wide pool.
  static StackPool& instance();

  /// Get a stack of at least @p size bytes; the actual size is @p size
  /// rounded up to the 64 KB size-class granule. The memory is
  /// uninitialized.
  Stack acquire(std::size_t size);

  /// Return a stack for reuse. Classes cache at most kMaxPooledPerClass
  /// stacks; beyond that the memory is freed.
  void release(Stack s);

  /// Free every cached stack (tests / memory pressure).
  void trim();

  /// Acquires served from the cache vs. fresh allocations (diagnostics).
  std::uint64_t reuses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reuses_;
  }
  std::uint64_t fresh_allocs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fresh_allocs_;
  }

  /// Bytes currently cached and idle in the pool.
  std::size_t pooled_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pooled_bytes_;
  }

  static constexpr std::size_t kGranule = 64 * 1024;
  /// Twice the fibers of a fanin world (128), the most any perfbench
  /// workload runs at once. With fewer, each teardown freed the surplus,
  /// and the next build's fresh stacks came back from the heap at shifted
  /// offsets: their top pages landed on pages no stack had touched, so the
  /// resident set grew with every world built.
  static constexpr std::size_t kMaxPooledPerClass = 256;

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<Stack>> classes_;
  std::uint64_t reuses_ = 0;
  std::uint64_t fresh_allocs_ = 0;
  std::size_t pooled_bytes_ = 0;
};

}  // namespace pm2::mth
