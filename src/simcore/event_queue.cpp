#include "simcore/event_queue.hpp"

#include <algorithm>

namespace pm2::sim {

namespace {
constexpr std::size_t kArity = 4;
}

EventQueue::~EventQueue() {
  for (std::size_t i = 0; i < num_slots_; ++i) {
    slot(static_cast<std::uint32_t>(i)).~Slot();
  }
}

void EventQueue::grow_slots() {
  chunks_.push_back(std::make_unique_for_overwrite<SlotStorage[]>(kSlotChunk));
}

void EventQueue::heap_push(HeapEntry e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(e, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::remove_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

Time EventQueue::earliest_other(std::span<const EventHandle> steps) const {
  Time t = heap_earliest_other(steps, 0);
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    if (!is_step(steps, lane_[i].key)) return std::min(t, lane_[i].when);
  }
  return t;
}

Time EventQueue::heap_earliest_other(std::span<const EventHandle> steps,
                                     std::size_t i) const {
  if (i >= heap_.size()) return kTimeInfinity;
  if (!is_step(steps, heap_[i].key)) return heap_[i].when;
  // A step: the earliest other entry below it is below one of its children.
  Time t = kTimeInfinity;
  for (std::size_t c = kArity * i + 1; c <= kArity * i + kArity; ++c) {
    t = std::min(t, heap_earliest_other(steps, c));
  }
  return t;
}

void EventQueue::delay(std::span<const EventHandle> steps, Time d) {
  std::size_t moved = heap_delay(steps, 0, d);
  for (std::size_t i = lane_head_;
       i < lane_.size() && is_step(steps, lane_[i].key); ++i) {
    lane_[i].when += d;
    ++moved;
  }
  assert(moved == steps.size() && "a step is not due before the rest");
  (void)moved;
}

std::size_t EventQueue::heap_delay(std::span<const EventHandle> steps,
                                   std::size_t i, Time d) {
  if (i >= heap_.size() || !is_step(steps, heap_[i].key)) return 0;
  heap_[i].when += d;
  std::size_t moved = 1;
  for (std::size_t c = kArity * i + 1; c <= kArity * i + kArity; ++c) {
    moved += heap_delay(steps, c, d);
  }
  return moved;
}

void EventQueue::compact() {
  drops_ += dead_entries();
  std::erase_if(heap_, [this](const HeapEntry& e) { return entry_dead(e); });
  // Floyd heap construction: sift down every internal node, bottom up.
  const std::size_t n = heap_.size();
  if (n >= 2) {
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  // The lane stays sorted under erasure, so it just shrinks in place.
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
  std::erase_if(lane_, [this](const HeapEntry& e) { return entry_dead(e); });
}

}  // namespace pm2::sim
