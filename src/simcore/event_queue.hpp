// pm2sim -- cancellable time-ordered event queue.
//
// The queue is the heart of the discrete-event engine. Keys are (time,
// sequence) pairs -- ties on time break by insertion order, so simulation
// runs are fully deterministic. Two structures hold pending entries:
//
//  * a *monotone lane*: events scheduled in nondecreasing key order append
//    to a sorted FIFO and pop off its front -- O(1), branch-predictable,
//    sequential memory. Discrete-event workloads are full of such streams
//    (timer ticks, monotone NIC wire completions, schedule_after(0) kicks),
//    and bulk schedule-then-run patterns ride entirely in the lane;
//  * a 4-ary implicit heap for everything else. Four 16-byte PODs per
//    cache line and half the sift-down depth of a binary heap, which is
//    what the pop-heavy engine loop is bound by at scale.
//
// run_next() takes the smaller of (lane front, heap top); each schedule
// costs at most one extra comparison versus a pure heap.
//
// The hot path is allocation-free in steady state:
//  * callbacks live in slab-pooled slots as small-buffer-optimized
//    InplaceFunction objects (no std::function heap traffic), built in
//    their slot by schedule() and invoked there by run_next(), so an event
//    never moves its callback; slots are recycled through an intrusive free
//    list threaded through their keys;
//  * handles carry the event's 64-bit key -- no shared_ptr control block
//    per event; a released slot can never match a stale key, so handles to
//    fired/cancelled events are detected in O(1) even after slot reuse;
//  * heap/lane entries are 16-byte PODs, so sifts move no callables.
//
// Cancellation is lazy: cancel() releases the slot immediately (the capture
// is destroyed, the handle goes stale) but leaves the heap/lane entry in
// place to be dropped when it reaches the front. To keep cancel-heavy
// workloads from retaining unbounded dead entries, both structures are
// compacted whenever dead entries outnumber both live ones and a fixed
// floor, which bounds dead_entries() at max(kCompactFloor, size()) after
// every operation.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/inplace_function.hpp"
#include "simcore/time.hpp"

namespace pm2::sim {

class EventQueue;

/// Inline capture budget for event callbacks. Sized so that every in-tree
/// capture fits without heap fallback; the largest is the fabric's
/// cross-partition delivery hop (this + port occupancy + the Packet,
/// 48 bytes).
inline constexpr std::size_t kEventCallbackCapacity = 64;

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// Handles are two words, trivially copyable, and go stale safely: a
/// handle's key names one specific (slot, schedule-sequence) pairing, so
/// once the event fires or is cancelled the handle reports !pending(), even
/// if the slot has been reused by a newer event. A handle must not be
/// queried after its EventQueue has been destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event has neither fired nor been cancelled yet.
  bool pending() const;

  /// True if this handle refers to some event (even one that already fired).
  bool valid() const { return queue_ != nullptr; }

 private:
  friend class EventQueue;
  friend class Engine;  // routes Engine::cancel to the owning queue
  EventHandle(EventQueue* queue, std::uint64_t key)
      : queue_(queue), key_(key) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t key_ = 0;
};

/// Priority queue of timed callbacks with deterministic tie-breaking, lazy
/// cancellation and slab-pooled slots. Not thread-safe by itself: the
/// partitioned engine gives each partition its own queue and guarantees one
/// host thread touches it at a time (single-partition worlds are strictly
/// single-threaded, as before).
class EventQueue {
 public:
  using Callback = InplaceFunction<kEventCallbackCapacity>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule @p f to fire at absolute time @p when. A callable other than
  /// a Callback is constructed directly in its slot.
  template <typename F>
  EventHandle schedule(Time when, F&& f) {
    const std::uint32_t s = acquire_slot();
    assert(seq_ < (std::uint64_t{1} << (64 - kSlotBits)) && "sequence overflow");
    const std::uint64_t key = (seq_++ << kSlotBits) | s;
    Slot& sl = slot(s);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      sl.cb = std::move(f);
    } else {
      sl.cb.emplace(std::forward<F>(f));
    }
    sl.key = key;
    const HeapEntry e{when, key};
    // Keys grow monotonically, so "e after lane back" reduces to a time
    // comparison: nondecreasing streams ride the O(1) lane.
    if (lane_empty() || when >= lane_.back().when) {
      if (lane_empty()) lane_trim();
      lane_.push_back(e);
    } else {
      heap_push(e);
    }
    ++live_;
    return EventHandle(this, key);
  }

  /// Cancel a previously scheduled event. No-op if already fired/cancelled.
  /// Returns true if the event was pending and is now cancelled. The
  /// callback's capture is destroyed immediately.
  bool cancel(EventHandle& h) {
    if (h.queue_ != this || !key_pending(h.key_)) return false;
    release_slot(slot_of(h.key_));
    assert(live_ > 0);
    --live_;
    maybe_compact();
    return true;
  }

  /// True if no live event remains.
  bool empty() const { return live_ == 0; }

  /// Number of live (pending) events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; kTimeInfinity if empty.
  Time next_time() {
    drop_dead();
    Time t = kTimeInfinity;
    if (!heap_.empty()) t = heap_[0].when;
    if (!lane_empty() && lane_[lane_head_].when < t) t = lane_[lane_head_].when;
    return t;
  }

  /// True if any entry, live or cancelled, is due at or before @p t. Reads
  /// the lane front and heap top only; a cancelled entry can make the
  /// answer true early, never false.
  bool due_by(Time t) const {
    return (!lane_empty() && lane_[lane_head_].when <= t) ||
           (!heap_.empty() && heap_[0].when <= t);
  }

  /// Remove the earliest live event and run it in its slot: first @p at
  /// with its time (the engine moves its clock there), then its callback.
  /// While the callback runs, its handle reads !pending() and the slot is
  /// not reused; it is released afterwards, also when the callback throws.
  /// Pre: !empty().
  template <typename At>
  void run_next(At&& at) {
    drop_dead();
    assert(live_ > 0 && "run_next() on empty EventQueue");
    const HeapEntry e = remove_front();
    const std::uint32_t s = slot_of(e.key);
    Slot& sl = slot(s);
    sl.key = kFiringKey;
    struct Release {
      EventQueue& q;
      std::uint32_t s;
      ~Release() { q.release_slot(s); }
    } release{*this, s};
    at(e.when);
    sl.cb();
  }

  /// If the earliest live event is due at or before @p limit and its
  /// callback is an @p F, remove it without running it: its time goes to
  /// @p when, a copy of the callable to @p out. Otherwise change nothing
  /// but dropped cancelled entries, and return false.
  template <typename F>
  bool take_next_if(Time limit, Time& when, F& out) {
    static_assert(std::is_trivially_copyable_v<F> &&
                  std::is_trivially_destructible_v<F>);
    drop_dead();
    if (live_ == 0) return false;
    const HeapEntry& front =
        front_in_lane() ? lane_[lane_head_] : heap_[0];
    if (front.when > limit) return false;
    const F* f = slot(slot_of(front.key)).cb.template target<F>();
    if (f == nullptr) return false;
    out = *f;
    const HeapEntry e = remove_front();
    when = e.when;
    release_slot(slot_of(e.key));
    return true;
  }

  /// Total number of events ever scheduled (diagnostics).
  std::uint64_t total_scheduled() const { return seq_; }

  /// Cancelled-but-not-yet-dropped entries (diagnostics). Compaction keeps
  /// this bounded at max(kCompactFloor, size()) after every operation.
  std::size_t dead_entries() const {
    return heap_.size() + (lane_.size() - lane_head_) - live_;
  }

  /// Event slots currently pooled for reuse (diagnostics).
  std::size_t free_slots() const { return num_free_; }

  /// Dead entries below this floor never trigger compaction (avoids O(n)
  /// rebuilds over tiny heaps where lazy dropping is cheaper).
  static constexpr std::size_t kCompactFloor = 64;

 private:
  friend class EventHandle;

  // An event's identity is one 64-bit key: (schedule sequence << kSlotBits)
  // | slot index. The slot records the key of its current occupant, so
  // liveness of a heap entry or handle is a single 64-bit compare, and heap
  // entries shrink to 16 bytes (four children per cache line, which the
  // memory-bound sift loop feels). Freed slots link into an intrusive free
  // list through their key field, tagged with the top bit -- live keys have
  // seq < 2^40, so a free slot can never match a stale entry or handle.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kFreeTag = std::uint64_t{1} << 63;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Key of a slot whose callback is running: matches no handle or entry,
  /// and the slot is on no free list.
  static constexpr std::uint64_t kFiringKey = kFreeTag | kNoSlot;

  struct Slot {
    Callback cb;
    /// Occupant's key; kFreeTag | next-free-index when on the free list.
    std::uint64_t key = kFreeTag | kNoSlot;
  };
  /// POD heap/lane entry; the callback stays in its slot so sifts are cheap.
  struct HeapEntry {
    Time when;
    std::uint64_t key;
  };
  /// Strict weak order "fires after": (when, seq) lexicographic, reversed.
  /// Keys compare like sequences: slots occupy the low bits and sequence
  /// numbers are unique, so equal-when entries order by schedule order.
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.key > b.key;
  }
  static std::uint32_t slot_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }

  /// Slots live in fixed chunks so growth never moves a pending callback.
  static constexpr std::size_t kSlotChunkShift = 10;
  static constexpr std::size_t kSlotChunk = std::size_t{1} << kSlotChunkShift;

  Slot& slot(std::uint32_t i) {
    return chunks_[i >> kSlotChunkShift][i & (kSlotChunk - 1)];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kSlotChunkShift][i & (kSlotChunk - 1)];
  }
  bool key_pending(std::uint64_t key) const {
    const std::uint32_t s = slot_of(key);
    return s < num_slots_ && slot(s).key == key;
  }
  bool entry_dead(const HeapEntry& e) const {
    return slot(slot_of(e.key)).key != e.key;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot(s).key);
      --num_free_;
      return s;
    }
    if (num_slots_ == chunks_.size() * kSlotChunk) grow_slots();
    assert(num_slots_ <= kSlotMask && "too many concurrent events");
    return static_cast<std::uint32_t>(num_slots_++);
  }

  /// Destroy the slot's capture, mark it free, link it for reuse.
  void release_slot(std::uint32_t s) {
    Slot& sl = slot(s);
    sl.cb.reset();
    sl.key = kFreeTag | free_head_;
    free_head_ = s;
    ++num_free_;
  }

  /// True if the earliest entry is the lane's front rather than the heap's
  /// top. Pre: some entry is queued.
  bool front_in_lane() const {
    return !lane_empty() &&
           (heap_.empty() || later(heap_[0], lane_[lane_head_]));
  }

  /// Unlink the earliest entry, live after drop_dead(), and count it out of
  /// size(); its slot is left to the caller. Pre: live_ > 0.
  HeapEntry remove_front() {
    HeapEntry e;
    if (front_in_lane()) {
      e = lane_[lane_head_++];
      lane_trim();
    } else {
      assert(!heap_.empty());
      e = heap_[0];
      remove_top();
    }
    --live_;
    return e;
  }

  void drop_dead() {
    while (lane_head_ < lane_.size() && entry_dead(lane_[lane_head_])) {
      ++lane_head_;
    }
    lane_trim();
    while (!heap_.empty() && entry_dead(heap_[0])) {
      remove_top();
    }
  }

  void maybe_compact() {
    const std::size_t dead = heap_.size() + (lane_.size() - lane_head_) - live_;
    if (dead > kCompactFloor && dead > live_) compact();
  }

  bool lane_empty() const { return lane_head_ == lane_.size(); }

  /// Reset an emptied lane, or reclaim the processed prefix of one that
  /// has not drained for a while (a stream that always has an entry queued
  /// would otherwise keep every popped entry).
  void lane_trim() {
    if (lane_empty()) {
      lane_.clear();
      lane_head_ = 0;
    } else if (lane_head_ > 4096 && lane_head_ > lane_.size() / 2) {
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
  }

  void grow_slots();
  void heap_push(HeapEntry e);
  /// Remove heap_[0], restoring the heap property.
  void remove_top();
  void sift_down(std::size_t i);
  void compact();

  std::vector<HeapEntry> heap_;
  /// Sorted by key; entries before lane_head_ already popped.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t num_slots_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t num_free_ = 0;
  std::size_t live_ = 0;
  std::uint64_t seq_ = 0;
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->key_pending(key_);
}

}  // namespace pm2::sim
