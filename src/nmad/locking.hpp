// pm2sim -- the library's lock topology, switchable at runtime.
//
// Sec. 3 of the paper compares three designs; LockSet realizes all of them
// behind one interface so the rest of the library is written once:
//
//   kNone   : every operation is a no-op (the unsafe baseline of Fig. 3).
//   kCoarse : every domain maps onto ONE library-wide spinlock (Sec. 3.1).
//             A progression pass may take the whole-library lock once via
//             lock_library(); nested domain locks are then elided, matching
//             the "one locking operation per library access" design.
//   kFine   : one lock per shared list -- the collect lists (global, as the
//             scheduler iterates over all of them, Sec. 3.2), one per
//             driver's transfer list, and one for the matching tables.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nmad/types.hpp"
#include "sync/spinlock.hpp"

namespace pm2::nm {

/// Lock domains of the fine-grain design.
enum class Domain : int {
  kCollect = 0,   ///< per-gate out/ctrl lists (one lock for all gates)
  kMatching = 1,  ///< posted/bound/unexpected receive tables
  kDriver0 = 2,   ///< transfer list of rail i = kDriver0 + i
};

class LockSet {
 public:
  /// @p prefix names the underlying spinlocks ("<prefix>-global",
  /// "<prefix>-collect", ...). The default keeps the historical names; a
  /// core with N > 1 endpoints builds one LockSet per endpoint, suffixing
  /// the prefix with the endpoint index so lock metrics and simsan reports
  /// stay distinguishable.
  LockSet(mth::Scheduler& sched, LockMode mode, int num_drivers,
          const std::string& prefix = "nm");

  LockSet(const LockSet&) = delete;
  LockSet& operator=(const LockSet&) = delete;

  LockMode mode() const { return mode_; }

  void lock(Domain d);
  void unlock(Domain d);
  /// Hook-safe acquisition: never spins; false = skip the work.
  bool try_lock(Domain d);

  Domain driver_domain(int rail) const {
    return static_cast<Domain>(static_cast<int>(Domain::kDriver0) + rail);
  }

  /// Whole-library lock for coarse-grain waiting functions: the paper's
  /// coarse design holds the mutex for the whole library visit (releasing
  /// it only before blocking), which is what serializes concurrent
  /// communication (Fig. 5). Re-entrant for the owning context, so
  /// progression passes made while waiting elide their domain locks.
  /// No-ops under kNone/kFine. try variant for hook contexts.
  void lock_library();
  void unlock_library();
  bool try_lock_library();
  bool library_locked_by_me() const;

  /// "The mutex is released before entering a blocking section": drop the
  /// library lock entirely (whatever the re-entrancy depth) and return the
  /// depth, so reacquire_library() can restore it after the block.
  int release_library_all();
  void reacquire_library(int depth);

  /// Total acquire/release cycles performed (diagnostics / tests).
  std::uint64_t cycles() const;

 private:
  sync::SpinLock* resolve(Domain d);

  mth::Scheduler& sched_;
  LockMode mode_;
  sync::SpinLock global_;
  sync::SpinLock collect_;
  sync::SpinLock matching_;
  /// One per rail, built in place in one array.
  std::vector<std::optional<sync::SpinLock>> drivers_;
  bool library_held_ = false;
  int library_depth_ = 0;
  /// Execution context owning the library lock: domain elision only applies
  /// to the owner, never to other threads racing for the global lock.
  const void* library_holder_ = nullptr;
};

}  // namespace pm2::nm
