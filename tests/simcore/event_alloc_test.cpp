// Allocation accounting for the engine hot path. The whole point of the
// slab-pooled event queue + InplaceFunction callbacks is that steady-state
// schedule/fire performs zero heap allocations; this test pins that down
// with counting global operator new/delete replacements, so a regression
// (say, a capture outgrowing the inline budget) fails loudly instead of
// showing up as a mysterious slowdown.
//
// Kept in its own test binary: the global new/delete replacement is
// process-wide and should not be linked into the other suites.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "simcore/engine.hpp"

namespace {

std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size);
}

void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  ++g_deletes;
  std::free(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  ++g_deletes;
  std::free(p);
}

namespace pm2::sim {
namespace {

struct AllocDelta {
  std::uint64_t news = g_news;
  std::uint64_t deletes = g_deletes;
  std::uint64_t new_count() const { return g_news - news; }
  std::uint64_t delete_count() const { return g_deletes - deletes; }
};

TEST(EventAlloc, SteadyStateScheduleAndFireIsAllocationFree) {
  Engine engine;
  std::uint64_t sink = 0;
  // Warm-up: grows the slot slab, the lane/heap vectors and the fiber-free
  // schedule path to their steady-state footprint.
  for (int i = 0; i < 4096; ++i) {
    engine.schedule_at(engine.now() + 1, [&sink] { ++sink; });
    engine.run();
  }
  AllocDelta d;
  for (int i = 0; i < 4096; ++i) {
    engine.schedule_at(engine.now() + 1, [&sink] { ++sink; });
    engine.run();
  }
  EXPECT_EQ(d.new_count(), 0u) << "schedule/fire hot path allocated";
  EXPECT_EQ(d.delete_count(), 0u);
  EXPECT_EQ(sink, 8192u);
}

TEST(EventAlloc, InTreeSizedCapturesStayInline) {
  // The largest in-tree capture is the fabric's cross-partition delivery
  // hop (48 bytes); captures up to 56 bytes must neither allocate nor count
  // as fallbacks.
  Engine engine;
  struct Payload {
    void* a;
    void* b;
    std::uint64_t c[5];
  };
  static_assert(sizeof(Payload) == 56);
  Payload payload{};
  std::uint64_t sink = 0;
  for (int i = 0; i < 64; ++i) {
    engine.schedule_at(engine.now() + 1, [payload, &sink] {
      sink += reinterpret_cast<std::uintptr_t>(payload.a) + payload.c[0];
    });
    engine.run();
  }
  const auto fallbacks_before = EventQueue::Callback::heap_fallbacks();
  AllocDelta d;
  for (int i = 0; i < 64; ++i) {
    engine.schedule_at(engine.now() + 1, [payload, &sink] {
      sink += reinterpret_cast<std::uintptr_t>(payload.b) + payload.c[4];
    });
    engine.run();
  }
  EXPECT_EQ(d.new_count(), 0u);
  EXPECT_EQ(EventQueue::Callback::heap_fallbacks(), fallbacks_before);
}

TEST(EventAlloc, OversizedCaptureFallsBackToHeapOnce) {
  Engine engine;
  struct Huge {
    std::uint64_t words[16];  // 128 B > kEventCallbackCapacity
  };
  Huge huge{};
  std::uint64_t sink = 0;
  // Warm the engine so the only hot-path allocation left is the spill.
  engine.schedule_at(engine.now() + 1, [] {});
  engine.run();
  const auto fallbacks_before = EventQueue::Callback::heap_fallbacks();
  AllocDelta d;
  engine.schedule_at(engine.now() + 1, [huge, &sink] { sink += huge.words[0]; });
  engine.run();
  EXPECT_EQ(EventQueue::Callback::heap_fallbacks(), fallbacks_before + 1);
  EXPECT_GE(d.new_count(), 1u) << "oversized capture should hit the heap";
}

TEST(EventAlloc, CancelChurnIsAllocationFreeAfterWarmup) {
  Engine engine;
  std::vector<EventHandle> handles;
  handles.reserve(512);
  auto churn = [&] {
    handles.clear();
    for (int i = 0; i < 512; ++i) {
      handles.push_back(engine.schedule_at(engine.now() + 1000 + i, [] {}));
    }
    for (auto& h : handles) engine.cancel(h);
  };
  for (int i = 0; i < 32; ++i) churn();  // warm-up: slab + vectors at size
  AllocDelta d;
  for (int i = 0; i < 32; ++i) churn();
  EXPECT_EQ(d.new_count(), 0u) << "cancel churn hot path allocated";
}

}  // namespace
}  // namespace pm2::sim
