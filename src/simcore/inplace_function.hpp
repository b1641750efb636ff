// pm2sim -- small-buffer-optimized move-only callable.
//
// The event hot path fires millions of callbacks per simulated second;
// std::function heap-allocates any capture larger than its tiny internal
// buffer (two pointers on libstdc++), which makes every scheduler dispatch
// and NIC completion pay a malloc/free pair. InplaceFunction stores the
// callable inline in a caller-sized buffer instead, falling back to a single
// heap allocation only for captures that do not fit. The capacity is chosen
// per use site so that all in-tree captures stay inline.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pm2::sim {

/// Move-only `void()` callable with @p Capacity bytes of inline storage.
///
/// Callables whose size, alignment and nothrow-movability allow it are
/// constructed directly in the inline buffer; moving the InplaceFunction
/// relocates them (move-construct + destroy source). Oversized callables are
/// heap-allocated once and owned; `heap_fallbacks()` counts such spills so
/// tests can assert the hot path never takes them.
template <std::size_t Capacity>
class InplaceFunction {
 public:
  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "calling an empty InplaceFunction");
    ops_->invoke(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the held callable (if any); the function becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Replace the held callable with @p f, constructed in the inline buffer
  /// (no temporary InplaceFunction is built and relocated).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
  }

  /// The held callable if it is a @p D stored inline, else nullptr.
  template <typename D>
  D* target() noexcept {
    return ops_ == &kInlineOps<D> ? as<D>(buf_) : nullptr;
  }

  /// True if the held callable spilled to the heap (capture too large).
  bool on_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

  /// Process-wide count of captures that did not fit inline (diagnostics;
  /// one counter per Capacity instantiation).
  static std::uint64_t heap_fallbacks() noexcept { return heap_fallbacks_; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable at @p dst from @p src, destroy @p src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    bool heap;
    /// Trivially relocatable and destructible: moves are a memcpy, reset is
    /// a pointer clear. True for the scheduler's this+index captures, which
    /// dominate the hot path.
    bool trivial;
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr bool trivial_inline =
      fits_inline<D> && std::is_trivially_copyable_v<D> &&
      std::is_trivially_destructible_v<D>;

  /// Pre: empty.
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
      ++heap_fallbacks_;
    }
  }

  /// Pre: ops_ == other.ops_ != nullptr. Moves the payload, empties other.
  void relocate_from(InplaceFunction& other) noexcept {
    if (ops_->trivial) {
      std::memcpy(buf_, other.buf_, Capacity);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  template <typename D>
  static D* as(void* p) {
    return std::launder(reinterpret_cast<D*>(p));
  }

  template <typename D>
  inline static const Ops kInlineOps = {
      [](void* p) { (*as<D>(p))(); },
      [](void* dst, void* src) {
        D* s = as<D>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { as<D>(p)->~D(); },
      /*heap=*/false,
      /*trivial=*/trivial_inline<D>,
  };

  template <typename D>
  inline static const Ops kHeapOps = {
      [](void* p) { (**as<D*>(p))(); },
      [](void* dst, void* src) { ::new (dst) D*(*as<D*>(src)); },
      [](void* p) { delete *as<D*>(p); },
      /*heap=*/true,
      /*trivial=*/false,
  };

  inline static std::uint64_t heap_fallbacks_ = 0;

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace pm2::sim
