// pm2sim -- NewMadeleine public types and configuration.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simcore/time.hpp"

namespace pm2::nm {

/// Message tag: matches sends to receives within one gate (peer pair).
using Tag = std::uint64_t;

/// Wildcard receive tag: matches any incoming message on the gate
/// (MPI_ANY_TAG equivalent). Never valid as a SEND tag.
inline constexpr Tag kAnyTag = ~Tag{0};

/// How the library protects its shared state (paper Sec. 3).
enum class LockMode {
  kNone,    ///< no locking: single-threaded baseline ("No locking", Fig. 3)
  kCoarse,  ///< one library-wide spinlock (Sec. 3.1)
  kFine,    ///< per-list locks: collect / per-driver / matching (Sec. 3.2)
};

/// How waiting functions wait (paper Sec. 3.3).
enum class WaitMode {
  kBusy,       ///< poll until completion
  kPassive,    ///< block on a scheduler primitive
  kFixedSpin,  ///< spin for a fixed budget, then block [Karlin et al.]
};

/// Who makes communication progress (paper Sec. 3.3 / 4).
enum class ProgressMode {
  kAppDriven,       ///< only application calls (isend/irecv/wait) progress
  kPiomanHooks,     ///< + PIOMan polls from idle/switch/timer hooks
  kPollThread,      ///< a dedicated progression thread on poll_core (Fig. 8)
  kTaskletOffload,  ///< submission deferred to a tasklet on poll_core (Fig. 9)
  kIdleCoreOffload, ///< submission picked up by idle cores' hooks (Fig. 9)
};

/// Which optimization strategy arranges packets (paper Sec. 2, Fig. 1).
enum class StrategyKind {
  kDefault,  ///< FIFO, one message per packet
  kAggreg,   ///< aggregate small messages into one packet
  kSplit,    ///< aggregate + split large messages across rails (multirail)
};

const char* to_string(LockMode m);
const char* to_string(WaitMode m);
const char* to_string(ProgressMode m);
const char* to_string(StrategyKind k);

/// Per-core (per-node) library configuration.
struct Config {
  LockMode lock = LockMode::kFine;

  WaitMode wait = WaitMode::kBusy;
  ProgressMode progress = ProgressMode::kAppDriven;
  StrategyKind strategy = StrategyKind::kAggreg;

  /// Spin budget before blocking under WaitMode::kFixedSpin (Sec. 3.3
  /// suggests "for instance 5 us").
  sim::Time fixed_spin_budget = sim::microseconds(5);

  /// The progression core: where the progression thread / offload tasklets
  /// live (kPollThread, kTaskletOffload), or the one core PIOMan's hooks
  /// poll from (kPiomanHooks, kIdleCoreOffload). -1 = unbound.
  int poll_core = -1;

  /// Messages larger than this use the rendezvous protocol.
  std::size_t rdv_threshold = std::size_t{32} * 1024;
};

}  // namespace pm2::nm
