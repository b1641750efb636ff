#include "simthread/fiber.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>

#if PM2SIM_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#if PM2SIM_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace pm2::mth {

thread_local constinit Fiber* Fiber::current_ = nullptr;

namespace {
constexpr std::size_t kMinStack = 64 * 1024;
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_size)
    : body_(std::move(body)),
      stack_(StackPool::instance().acquire(
          stack_size < kMinStack ? kMinStack : stack_size)) {}

Fiber::~Fiber() {
  // Destroying a live suspended fiber leaks whatever its stack owned unless
  // it was unwound first (a Cluster unwinds its abandoned threads when it is
  // torn down). The stack memory itself is recycled either way: once the
  // fiber is gone it can never be resumed, so its frames are unreachable.
#if !PM2SIM_FIBER_ASM && PM2SIM_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  StackPool::instance().release(std::move(stack_));
}

#if PM2SIM_FIBER_ASM

// --- x86-64 assembly backend -------------------------------------------------
//
// The switch saves the SysV callee-saved registers (rbx, rbp, r12-r15), the
// x87 control word and MXCSR on the outgoing stack, stores rsp, loads the
// incoming stack pointer and restores in reverse. Caller-saved state needs
// no treatment: pm2sim_fiber_switch is an ordinary function call, so the
// compiler already assumes those registers are clobbered. The signal mask
// is deliberately NOT switched (the simulator neither masks signals nor
// runs fiber code from handlers); skipping it is what removes the
// rt_sigprocmask syscall that makes swapcontext slow.
//
// Saved-frame layout, ascending from the stored rsp:
//   +0  : x87 control word (2B) | pad
//   +4  : MXCSR (4B)
//   +8  : r15   +16 : r14   +24 : r13   +32 : r12
//   +40 : rbx   +48 : rbp   +56 : return address
// Total 64 bytes; frames are created 16-byte aligned.

extern "C" void pm2sim_fiber_switch(void** save_sp, void* load_sp);
extern "C" void pm2sim_fiber_entry();
extern "C" void pm2sim_fiber_run(void* fiber);

__asm__(
    ".text\n"
    ".align 16\n"
    ".globl pm2sim_fiber_switch\n"
    ".hidden pm2sim_fiber_switch\n"
    ".type pm2sim_fiber_switch,@function\n"
    "pm2sim_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq  $8, %rsp\n"
    "  stmxcsr 4(%rsp)\n"
    "  fnstcw  (%rsp)\n"
    "  movq  %rsp, (%rdi)\n"
    "  movq  %rsi, %rsp\n"
    "  fldcw   (%rsp)\n"
    "  ldmxcsr 4(%rsp)\n"
    "  addq  $8, %rsp\n"
    "  popq  %r15\n"
    "  popq  %r14\n"
    "  popq  %r13\n"
    "  popq  %r12\n"
    "  popq  %rbx\n"
    "  popq  %rbp\n"
    "  retq\n"
    ".size pm2sim_fiber_switch,.-pm2sim_fiber_switch\n"
    // First entry into a fresh fiber: the prepared frame leaves the Fiber*
    // in r15 and "returns" here; hand it over with a call so the stack is
    // 16-byte aligned at the callee's entry.
    ".align 16\n"
    ".globl pm2sim_fiber_entry\n"
    ".hidden pm2sim_fiber_entry\n"
    ".type pm2sim_fiber_entry,@function\n"
    "pm2sim_fiber_entry:\n"
    "  movq %r15, %rdi\n"
    "  callq pm2sim_fiber_run\n"
    "  ud2\n"
    ".size pm2sim_fiber_entry,.-pm2sim_fiber_entry\n");

void fiber_run_trampoline(Fiber* f) { f->run_body(); }

extern "C" void pm2sim_fiber_run(void* fiber) {
  fiber_run_trampoline(static_cast<Fiber*>(fiber));
  // run_body never returns (its final switch is never resumed).
  std::abort();
}

void Fiber::prepare_stack() {
  // Build an initial saved frame at the top of the stack that the switch
  // can "restore": registers zeroed except r15 = this, return address =
  // pm2sim_fiber_entry, and the current FP control words (a fresh fiber
  // inherits the host's rounding/exception configuration, like a thread).
  std::uint8_t* top = stack_.mem.get() + stack_.size;
  top = reinterpret_cast<std::uint8_t*>(
      reinterpret_cast<std::uintptr_t>(top) & ~std::uintptr_t{15});
  std::uint8_t* frame = top - 64;  // stays 16-byte aligned
  std::uint16_t fpcw = 0;
  std::uint32_t mxcsr = 0;
  __asm__ volatile("fnstcw %0" : "=m"(fpcw));
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  *reinterpret_cast<std::uint16_t*>(frame + 0) = fpcw;
  *reinterpret_cast<std::uint32_t*>(frame + 4) = mxcsr;
  *reinterpret_cast<std::uintptr_t*>(frame + 8) =
      reinterpret_cast<std::uintptr_t>(this);         // r15
  *reinterpret_cast<std::uintptr_t*>(frame + 16) = 0;  // r14
  *reinterpret_cast<std::uintptr_t*>(frame + 24) = 0;  // r13
  *reinterpret_cast<std::uintptr_t*>(frame + 32) = 0;  // r12
  *reinterpret_cast<std::uintptr_t*>(frame + 40) = 0;  // rbx
  *reinterpret_cast<std::uintptr_t*>(frame + 48) = 0;  // rbp
  *reinterpret_cast<std::uintptr_t*>(frame + 56) =
      reinterpret_cast<std::uintptr_t>(&pm2sim_fiber_entry);
  fiber_sp_ = frame;
}

void Fiber::resume() {
  assert(!finished_ && "resume() on finished fiber");
  assert(current_ == nullptr && "resume() called from inside a fiber");
  if (!started_) {
    started_ = true;
    prepare_stack();
  }
  active_ = true;
  current_ = this;
  pm2sim_fiber_switch(&return_sp_, fiber_sp_);
  // Back from the fiber: it either suspended or finished.
  current_ = nullptr;
}

void Fiber::suspend() {
  assert(current_ == this && "suspend() called from outside the fiber");
  active_ = false;
  current_ = nullptr;
  pm2sim_fiber_switch(&fiber_sp_, return_sp_);
  // Resumed again.
  active_ = true;
  current_ = this;
  check_unwind();
}

void Fiber::switch_to(Fiber& next) {
  assert(current_ == this && "switch_to() called from outside the fiber");
  assert(&next != this && next.started_ && !next.finished_ && !next.active_);
  next.return_sp_ = return_sp_;
  active_ = false;
  next.active_ = true;
  current_ = &next;
  pm2sim_fiber_switch(&fiber_sp_, next.fiber_sp_);
  // Resumed again.
  active_ = true;
  current_ = this;
  check_unwind();
}

#else  // !PM2SIM_FIBER_ASM --------------------------------------------------

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
             static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(ptr)->run_body();
}

void Fiber::resume() {
  assert(!finished_ && "resume() on finished fiber");
  assert(current_ == nullptr && "resume() called from inside a fiber");
  if (!started_) {
    started_ = true;
    if (getcontext(&ctx_) != 0) {
      std::perror("getcontext");
      std::abort();
    }
    ctx_.uc_stack.ss_sp = stack_.mem.get();
    ctx_.uc_stack.ss_size = stack_.size;
    ctx_.uc_link = nullptr;
    const auto ptr = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
  }
  active_ = true;
  current_ = this;
  // Control comes back here from this fiber or from one it handed the host
  // thread to (switch_to), either way through return_ctx_.
  ucontext_t resumer_ctx;
  return_ctx_ = &resumer_ctx;
#if PM2SIM_FIBER_ASAN
  void* resumer_fake = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake, stack_.mem.get(),
                                 stack_.size);
#endif
#if PM2SIM_FIBER_TSAN
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&resumer_ctx, &ctx_);
#if PM2SIM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(resumer_fake, nullptr, nullptr);
#endif
  // Back from the fiber: it either suspended or finished.
  current_ = nullptr;
}

void Fiber::suspend() {
  assert(current_ == this && "suspend() called from outside the fiber");
  active_ = false;
  current_ = nullptr;
#if PM2SIM_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fiber_fake_, return_stack_bottom_,
                                 return_stack_size_);
#endif
#if PM2SIM_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  swapcontext(&ctx_, return_ctx_);
  switched_in();
}

void Fiber::switch_to(Fiber& next) {
  assert(current_ == this && "switch_to() called from outside the fiber");
  assert(&next != this && next.started_ && !next.finished_ && !next.active_);
  // next returns where this fiber would have: the resumer's context, stack
  // and sanitizer fiber state.
  next.return_ctx_ = return_ctx_;
#if PM2SIM_FIBER_ASAN
  next.return_stack_bottom_ = return_stack_bottom_;
  next.return_stack_size_ = return_stack_size_;
  next.handed_in_ = true;
#endif
#if PM2SIM_FIBER_TSAN
  next.tsan_resumer_ = tsan_resumer_;
#endif
  active_ = false;
  next.active_ = true;
  current_ = &next;
#if PM2SIM_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fiber_fake_, next.stack_.mem.get(),
                                 next.stack_.size);
#endif
#if PM2SIM_FIBER_TSAN
  __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
  swapcontext(&ctx_, &next.ctx_);
  switched_in();
}

void Fiber::switched_in() {
#if PM2SIM_FIBER_ASAN
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(fiber_fake_, &from_bottom, &from_size);
  // Resumed: the stack left is the resumer's. Handed in: it is the other
  // fiber's, and switch_to() already set the resumer's.
  if (!handed_in_) {
    return_stack_bottom_ = from_bottom;
    return_stack_size_ = from_size;
  }
  handed_in_ = false;
#endif
  active_ = true;
  current_ = this;
  check_unwind();
}

#endif  // PM2SIM_FIBER_ASM

void Fiber::unwind() {
  assert(started_ && !active_ && "unwind() of a fiber that is not suspended");
  unwind_base_ = std::uncaught_exceptions();
  while (!finished_) resume();
}

void Fiber::run_body() {
#if !PM2SIM_FIBER_ASM && PM2SIM_FIBER_ASAN
  // First instruction on the fiber stack: tell ASan the switch landed and
  // learn the resumer's stack bounds for switching back out.
  __sanitizer_finish_switch_fiber(nullptr, &return_stack_bottom_,
                                  &return_stack_size_);
#endif
  try {
    body_();
  } catch (const Unwind&) {
    // Unwound (see unwind()): there is no error to report.
  } catch (...) {
    // The fiber finishes; its resumer rethrows (see take_error()).
    error_ = std::current_exception();
  }
  finished_ = true;
  // Return to the last resumer; this context is never entered again.
  active_ = false;
  current_ = nullptr;
#if PM2SIM_FIBER_ASM
  pm2sim_fiber_switch(&fiber_sp_, return_sp_);
#else
#if PM2SIM_FIBER_ASAN
  // Final exit: null fake-stack save tells ASan to free this fiber's fake
  // frames instead of keeping them for a resume that never comes.
  __sanitizer_start_switch_fiber(nullptr, return_stack_bottom_,
                                 return_stack_size_);
#endif
#if PM2SIM_FIBER_TSAN
  // The fiber's TSan state stays alive until ~Fiber (destroying the state
  // one is currently running on is not allowed).
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  swapcontext(&ctx_, return_ctx_);
#endif
  // Unreachable: resume() refuses finished fibers.
  std::abort();
}

}  // namespace pm2::mth
