// pm2sim -- stackful coroutines (fibers).
//
// Every simulated thread body runs on its own fiber so that benchmark and
// application code can be written as ordinary sequential C++ (loops, RAII,
// blocking calls); the scheduler suspends/resumes fibers as virtual time
// dictates. Only the engine/scheduler context resumes a fiber. A fiber may
// hand the host thread straight to another, suspended fiber (switch_to);
// that one returns to the same resumer, so control still comes back to the
// engine stack that called resume().
//
// Two switch backends share one interface:
//   * x86-64 assembly (default on __x86_64__): saves/restores only the
//     SysV callee-saved registers plus the FP control words -- no syscall.
//     The ucontext path's swapcontext() performs a rt_sigprocmask syscall
//     per switch, which dominates the host cost of charge()-heavy
//     workloads (a virtual-time charge that another event may interleave
//     with is a suspend/resume pair).
//   * POSIX ucontext fallback: used on other architectures and under
//     Address/ThreadSanitizer (both track stack switches through dedicated
//     fiber APIs; a raw assembly switch would confuse their shadow stacks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>

#include "simcore/partition.hpp"
#include "simthread/stack_pool.hpp"

#if !defined(PM2SIM_FIBER_ASM)
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(PM2SIM_FIBER_UCONTEXT)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PM2SIM_FIBER_ASM 0
#else
#define PM2SIM_FIBER_ASM 1
#endif
#else
#define PM2SIM_FIBER_ASM 1
#endif
#else
#define PM2SIM_FIBER_ASM 0
#endif
#endif

#if !PM2SIM_FIBER_ASM
#include <ucontext.h>
#endif

// Under AddressSanitizer the ucontext backend additionally annotates every
// switch with __sanitizer_{start,finish}_switch_fiber so ASan tracks the
// live stack. Without this, throwing an exception on a fiber stack makes
// __asan_handle_no_return unpoison using the *thread's* stack bounds and
// report a bogus stack-buffer-overflow (google/sanitizers#189).
#if !defined(PM2SIM_FIBER_ASAN)
#if defined(__SANITIZE_ADDRESS__)
#define PM2SIM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PM2SIM_FIBER_ASAN 1
#else
#define PM2SIM_FIBER_ASAN 0
#endif
#else
#define PM2SIM_FIBER_ASAN 0
#endif
#endif

// Under ThreadSanitizer every fiber gets its own __tsan fiber state and
// each switch is announced with __tsan_switch_to_fiber; without this, TSan
// sees one host thread whose stack pointer teleports between allocations
// and its shadow-stack bookkeeping breaks. Switches keep synchronization
// (flag 0): everything runs on one host thread, so fiber switches are real
// happens-before and suppressing them would only manufacture false races.
#if !defined(PM2SIM_FIBER_TSAN)
#if defined(__SANITIZE_THREAD__)
#define PM2SIM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PM2SIM_FIBER_TSAN 1
#else
#define PM2SIM_FIBER_TSAN 0
#endif
#else
#define PM2SIM_FIBER_TSAN 0
#endif
#endif

#if PM2SIM_FIBER_ASM && PM2SIM_FIBER_TSAN
#error "the assembly fiber backend cannot run under TSan; define PM2SIM_FIBER_UCONTEXT"
#endif

namespace pm2::mth {

/// A stackful coroutine. Not copyable, not movable (the stack address is
/// baked into the saved context).
class Fiber {
 public:
  /// Create a fiber that will execute @p body on its first resume().
  /// @p stack_size is rounded up to a sane minimum. The stack comes from
  /// the process-wide StackPool and returns there on destruction, so thread
  /// churn does not hit the allocator in steady state.
  explicit Fiber(std::function<void()> body, std::size_t stack_size = std::size_t{256} * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it suspends or finishes. Must not be called from
  /// inside any fiber. Pre: !finished().
  void resume();

  /// Suspend this fiber, returning control to the resume() caller.
  /// Must be called from inside this fiber.
  void suspend();

  /// Suspend this fiber and continue @p next, a started fiber suspended in
  /// suspend() or switch_to(), as if the resume() caller had resumed it:
  /// when @p next suspends or finishes, control returns to that caller.
  /// Must be called from inside this fiber; @p next is not this fiber.
  void switch_to(Fiber& next);

  /// True once body() has returned or thrown.
  bool finished() const { return finished_; }

  /// What body() threw, if it did; the fiber finished either way. Cleared
  /// by the call, so the exception is rethrown once.
  std::exception_ptr take_error() { return std::exchange(error_, nullptr); }

  /// True while the fiber is the one currently executing.
  bool active() const { return active_; }

  /// The fiber currently executing on this host thread, or nullptr when in
  /// the engine/scheduler context.
  static Fiber* current() { return current_; }

 private:
  void run_body();

  std::function<void()> body_;
  std::exception_ptr error_;
  StackPool::Stack stack_;
#if PM2SIM_FIBER_ASM
  friend void fiber_run_trampoline(Fiber* f);
  void prepare_stack();
  void* fiber_sp_ = nullptr;   ///< saved stack pointer of the fiber context
  void* return_sp_ = nullptr;  ///< saved stack pointer of the resumer
#else
  static void trampoline(unsigned hi, unsigned lo);
  /// Bookkeeping on the fiber's side of every switch back into it.
  void switched_in();
  ucontext_t ctx_{};
  /// The resumer's context, saved by resume() in its own frame. A
  /// ucontext_t points into itself, so switch_to() passes the pointer on
  /// instead of copying the context.
  ucontext_t* return_ctx_ = nullptr;
#if PM2SIM_FIBER_ASAN
  void* fiber_fake_ = nullptr;  ///< ASan fake stack saved by a switch out
  const void* return_stack_bottom_ = nullptr;  ///< resumer's stack, for
  std::size_t return_stack_size_ = 0;          ///< switching back out
  /// Entered by switch_to(): ASan reports the other fiber's stack as the
  /// one left, so the resumer's bounds carried over by switch_to() stand.
  bool handed_in_ = false;
#endif
#if PM2SIM_FIBER_TSAN
  void* tsan_fiber_ = nullptr;    ///< TSan fiber state for this fiber
  void* tsan_resumer_ = nullptr;  ///< TSan state of the resuming context
#endif
#endif
  bool started_ = false;
  bool finished_ = false;
  bool active_ = false;

  // See PM2SIM_TLS_FAST in simcore/partition.hpp: read from fiber stacks.
  PM2SIM_TLS_FAST static thread_local constinit Fiber* current_;
};

}  // namespace pm2::mth
