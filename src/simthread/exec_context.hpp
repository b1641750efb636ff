// pm2sim -- execution contexts: who is currently consuming CPU, and how.
//
// Code that charges virtual time (locks, NIC drivers, PIOMan, NewMadeleine)
// runs in one of two contexts:
//
//  * a *thread* context -- inside a simulated thread; charging time suspends
//    the fiber until the virtual clock catches up, and blocking is allowed;
//  * a *hook* context -- inside a scheduler hook (idle loop, context-switch
//    hook, timer tick) or a tasklet; there is no thread to suspend, so costs
//    accumulate and are applied by the scheduler afterwards, and blocking is
//    forbidden (the paper, Sec. 4.2: "usual locking mechanisms cannot be
//    used in this context").
//
// The active context is reachable through ExecContext::current() so that
// shared primitives work identically in both worlds.
#pragma once

#include <cassert>

#include "simcore/partition.hpp"
#include "simcore/time.hpp"
#include "simmachine/machine.hpp"

namespace pm2::mth {

class ExecContext {
 public:
  virtual ~ExecContext();

  /// Consume @p t nanoseconds of CPU on this context's core.
  virtual void charge(sim::Time t) = 0;

  /// True if the context may block (semaphores, condition waits).
  virtual bool can_block() const = 0;

  /// The core this context executes on.
  virtual int core() const = 0;

  /// The node this context executes on.
  virtual mach::Machine& machine() const = 0;

  /// Access a tagged shared cache line: charges the inter-core transfer
  /// cost (if any) and retags the line to this core.
  void touch(mach::CacheLine& line) {
    charge(machine().touch_line(line, core()));
  }

  /// simsan actor cache (see simsan/context.hpp): the interned actor id
  /// for this context, valid while san_epoch matches the analyzer's epoch.
  /// Epoch 0 never matches, so fresh contexts intern lazily on first use.
  std::uint32_t san_actor = 0;
  std::uint32_t san_epoch = 0;

  /// The context active right now; asserts that one exists.
  static ExecContext& current() {
    assert(current_ && "no execution context active");
    return *current_;
  }

  /// The active context or nullptr (engine/main context).
  static ExecContext* current_or_null() { return current_; }

  /// Make @p ctx the active context without a scope: a charge handing the
  /// host thread from one fiber straight to another's resume. The
  /// Activation that resumed the first fiber restores its own previous
  /// context when control comes back to it.
  static void hand_over(ExecContext* ctx) { current_ = ctx; }

  /// RAII activation of a context around a stretch of host code.
  class Activation {
   public:
    explicit Activation(ExecContext* ctx) : prev_(current_) { current_ = ctx; }
    ~Activation() { current_ = prev_; }
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    ExecContext* prev_;
  };

 private:
  // constinit + initial-exec keep every access a plain %fs-relative load:
  // fibers read this from ucontext stacks under ASan/TSan, where the lazy
  // TLS-init guard and __tls_get_addr paths are not reliable.
  PM2SIM_TLS_FAST static thread_local constinit ExecContext* current_;
};

/// Accumulating context for hooks and tasklets: charge() adds to a counter
/// that the scheduler turns into core-busy time once the hook returns.
class HookContext final : public ExecContext {
 public:
  HookContext(mach::Machine& machine, int core)
      : machine_(machine), core_(core) {}

  void charge(sim::Time t) override {
    assert(t >= 0);
    consumed_ += t;
  }
  bool can_block() const override { return false; }
  int core() const override { return core_; }
  mach::Machine& machine() const override { return machine_; }

  sim::Time consumed() const { return consumed_; }
  void reset() { consumed_ = 0; }

  /// Run @p fn with this context active; returns time consumed by it.
  template <typename Fn>
  sim::Time run(Fn&& fn) {
    const sim::Time before = consumed_;
    Activation act(this);
    fn();
    return consumed_ - before;
  }

 private:
  mach::Machine& machine_;
  int core_;
  sim::Time consumed_ = 0;
};

// Synchronization objects and the NIC are poked from three places:
// simulated threads, hooks/tasklets, and raw engine events such as NIC
// completions (no context at all -- the "hardware" acts, no CPU pays).
// These helpers charge when someone is there to pay and do nothing
// otherwise.

/// Charge @p t to the active context, if any.
inline void charge_if_ctx(sim::Time t) {
  if (auto* ctx = ExecContext::current_or_null()) ctx->charge(t);
}

/// Touch a shared line from the active context, if any.
inline void touch_if_ctx(mach::CacheLine& line) {
  if (auto* ctx = ExecContext::current_or_null()) ctx->touch(line);
}

}  // namespace pm2::mth
