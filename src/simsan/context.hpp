// pm2sim -- simsan taps: resolving execution contexts to analyzer actors.
//
// This header is the bridge between the analyzer core (simsan.hpp, which
// sits below pm2_simthread in the link order) and the threading stack. It
// is header-only and included from instrumented .cpp files in simthread/,
// sync/, pioman/ and nmad/ -- never from simsan.cpp itself.
//
// Every helper is a no-op unless the analyzer is enabled; guard multi-step
// call sites with `san::on()` so the disabled cost stays at one branch.
#pragma once

#include "simsan/simsan.hpp"
#include "simthread/thread.hpp"

namespace pm2::san {

inline bool on() { return Analyzer::global().enabled(); }

/// The analyzer actor for an execution context. Thread contexts are stable
/// actors keyed by their ThreadContext; hook/tasklet contexts collapse onto
/// one actor per (machine, core) -- hook runs on a core are serialized, so
/// that is the unit that can race with threads. The id is cached in the
/// context and invalidated by Analyzer::reset() through the epoch.
inline std::uint32_t actor_of(mth::ExecContext& ctx) {
  Analyzer& a = Analyzer::global();
  if (ctx.san_epoch == a.epoch()) return ctx.san_actor;
  std::uint32_t id;
  if (ctx.can_block()) {
    // ThreadContext is the only context that can block.
    auto& tc = static_cast<mth::ThreadContext&>(ctx);
    id = a.thread_actor(&tc, tc.thread().name());
  } else {
    id = a.hook_actor(&ctx.machine(), ctx.core(), ctx.machine().name());
  }
  ctx.san_actor = id;
  ctx.san_epoch = a.epoch();
  return id;
}

/// Actor for the currently active context; kNoActor in the engine context
/// (world setup, raw event callbacks), whose accesses are not analyzed.
inline std::uint32_t current_actor() {
  mth::ExecContext* ctx = mth::ExecContext::current_or_null();
  return ctx == nullptr ? kNoActor : actor_of(*ctx);
}

// --- tap helpers (all enabled-checked, engine-context tolerant) -------------

/// A spinlock was acquired / released (the only lock kind that is held).
inline void acquired(SlotTag& tag, const std::string& name, bool blocking) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return;
  const std::uint32_t actor = current_actor();
  if (actor == kNoActor) return;
  a.on_acquire(actor, a.lock_slot(tag, name), blocking);
}

inline void released(SlotTag& tag, const std::string& name) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return;
  const std::uint32_t actor = current_actor();
  if (actor == kNoActor) return;
  a.on_release(actor, a.lock_slot(tag, name));
}

/// Publish the caller's clock through a pseudo-lock (sem release,
/// flag set, barrier arrival).
inline void hb_release(SlotTag& tag, const std::string& name) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return;
  const std::uint32_t actor = current_actor();
  if (actor == kNoActor) return;
  a.hb_release(actor, a.lock_slot(tag, name));
}

/// Observe previously published clocks (wait return, sem acquire).
inline void hb_acquire(SlotTag& tag, const std::string& name) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return;
  const std::uint32_t actor = current_actor();
  if (actor == kNoActor) return;
  a.hb_acquire(actor, a.lock_slot(tag, name));
}

/// The caller entered a may-block primitive (checks the no-blocking-while-
/// holding-a-spinlock rule). Call at the entry of every blocking path, not
/// at busy-wait loops: active waiting with a lock held is legitimate here
/// (the paper's coarse mode busy-waits holding the library lock).
inline void block_point(const char* what) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return;
  const std::uint32_t actor = current_actor();
  if (actor != kNoActor) a.on_block(actor, what);
}

/// Report a context-rule violation; returns true iff the analyzer is
/// enabled (callers then skip the assert and take a safe fallback).
inline bool violation(const char* rule, const std::string& detail) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return false;
  return a.report_context(current_actor(), rule, detail);
}

/// One access to declared shared state (engine context is skipped).
inline void access(Shared& obj, bool is_write) {
  Analyzer& a = Analyzer::global();
  if (!a.enabled()) return;
  const std::uint32_t actor = current_actor();
  if (actor != kNoActor) a.on_access(actor, obj, is_write);
}

}  // namespace pm2::san

/// Annotate a mutation (or read: _RO) of declared shared state. One branch
/// on a global flag while the analyzer is disabled.
#define SIMSAN_ACCESS(obj) \
  do {                     \
    if (pm2::san::on()) pm2::san::access((obj), /*is_write=*/true); \
  } while (0)
#define SIMSAN_ACCESS_RO(obj) \
  do {                        \
    if (pm2::san::on()) pm2::san::access((obj), /*is_write=*/false); \
  } while (0)
