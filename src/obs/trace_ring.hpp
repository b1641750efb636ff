// pm2sim -- binary trace records and the lock-free SPSC ring that carries
// them.
//
// One ring per engine partition: the single producer is whichever host
// worker is animating that partition (the engine pins partition p to worker
// p % workers, and within a partition events execute sequentially, so there
// is never more than one concurrent producer). The single consumer is the
// drain side of obs::TraceLog -- the producer itself when its ring fills
// (inline spill) or a read-side drain after the run -- serialized by a
// per-ring consumer mutex at that layer.
//
// The classic head/tail idiom: power-of-two capacity, monotonically
// increasing 64-bit positions masked on access, producer publishes with a
// release store of head after writing the slot, consumer publishes space
// with a release store of tail after reading. The producer keeps a cached
// copy of tail so the common-case try_push touches no shared cache line
// except its own head; head and tail live on separate cache lines to avoid
// false sharing between producer and consumer cores.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "simcore/time.hpp"

namespace pm2::obs {

/// Phase byte for flow-lifecycle stamps (obs::FlowTracer). Not a Chrome
/// trace phase: the JSON rendering aggregates these records into the
/// per-stage latency breakdown and synthesizes the "s"/"t"/"f" flow-arrow
/// events from them.
inline constexpr std::uint8_t kFlowStampPhase = 0x80;

/// One fixed-size binary trace record (48 bytes, trivially copyable).
///
/// Field use by phase:
///   'X' complete   ts=start dur=duration     name/cat interned
///   'i' instant    ts=t                      name/cat interned
///   'M' metadata   name=display name         cat=interned meta kind
///   kFlowStampPhase ts=stamp time  dur=stage  id=flow id  pid/tid=node/core
///
/// `emit` is the virtual time at which the record was *created* (the
/// producing partition's clock), the primary canonical-merge key: within a
/// partition it is non-decreasing in ring order, and it is a virtual-time
/// property, so the merged order -- and the converted JSON -- is identical
/// for any host worker count.
struct TraceRecord {
  sim::Time ts = 0;
  sim::Time emit = 0;
  std::int64_t dur = 0;
  std::uint64_t id = 0;
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  std::uint16_t name = 0;
  std::uint16_t cat = 0;
  std::uint8_t phase = 0;
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(TraceRecord) == 48, "binary log format is 48 B/record");
static_assert(std::is_trivially_copyable_v<TraceRecord>);

class TraceRing {
 public:
  /// @p capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique_for_overwrite<TraceRecord[]>(cap);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false (and writes nothing) when the ring is
  /// full. ~few ns: one relaxed load of the private head, a cached-tail
  /// check (acquire reload only when the cache says full), a 48-byte store
  /// and a release store of head.
  bool try_push(const TraceRecord& r) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ > mask_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    slots_[head & mask_] = r;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pop at most @p max records into @p out, returning the
  /// number popped. At most one consumer may call this at a time (TraceLog
  /// serializes with a per-ring mutex).
  std::size_t pop_n(TraceRecord* out, std::size_t max) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::size_t n = static_cast<std::size_t>(head - tail);
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(tail + i) & mask_];
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Records currently buffered (racy snapshot; exact when quiescent).
  std::size_t size() const {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_acquire));
  }

  bool empty() const { return size() == 0; }

 private:
  std::unique_ptr<TraceRecord[]> slots_;
  std::size_t mask_ = 0;
  // Producer-owned line: head plus the producer's cached view of tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  // Consumer-owned line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace pm2::obs
