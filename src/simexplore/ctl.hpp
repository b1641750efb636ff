// pm2sim -- simexplore controller: explicit schedule choice points.
//
// The simulator executes exactly one interleaving per configuration: every
// queue in the stack is FIFO and every tie is broken the same way on every
// run. That determinism is what makes simsan's verdicts reproducible -- and
// also what limits them to the *one* schedule we happened to execute. This
// controller turns the tie-breaks into explicit choice points:
//
//   kDispatch     which ready thread a core runs next
//                 (simthread::Scheduler::dispatch, runqueue pick)
//   kSpinHandoff  which spinner a SpinLock release wakes/hands off to
//
// Disabled (the default), every instrumented site costs one branch on a
// global flag and picks option 0 -- byte-identical to the uninstrumented
// tree. Active, each multi-option site asks pick() for an index: the first
// `forced.size()` choice points replay a forced choice vector, every later
// one takes the default 0. The executed trace (site kind, state
// fingerprint, option count, chosen index) is what the explorer branches
// on (explore.hpp).
//
// The controller also hosts the liveness monitor: nmad request completions
// count as progress (note_completion), and once no completion has landed
// for a virtual-time horizon, recurring choice-point fingerprints certify
// a starvation limit cycle -- the scheduler keeps making the same
// decisions from the same states with nothing ever completing -- and the
// installed stop hook halts the engine so the schedule can be reported as
// a liveness.livelock finding instead of spinning forever.
//
// Like simsan's Analyzer, this library sits *below* pm2_simthread in the
// link order and is instrumented via one-branch taps (xpl::on()).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/time.hpp"

namespace pm2::xpl {

/// The explicit values are part of every schedule hash: roll() in
/// explore.cpp mixes them into the rolling prefix hash.
enum class SiteKind : std::uint8_t {
  kDispatch = 1,
  kSpinHandoff = 2,
};

const char* to_string(SiteKind k);

/// FNV-1a 64 accumulator for choice-point state fingerprints. Mix only
/// schedule-stable identities (thread ids, node/lock names, queue sizes);
/// never pointers -- ASLR would break cross-run determinism.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ (v & 0xffu)) * kPrime;
      v >>= 8;
    }
  }
  void mix_str(const std::string& s) {
    for (char c : s) h_ = (h_ ^ static_cast<std::uint8_t>(c)) * kPrime;
    h_ = (h_ ^ 0xffu) * kPrime;  // length delimiter
  }
  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h_ = 14695981039346656037ull;
};

/// One executed multi-option choice point.
struct Step {
  SiteKind site = SiteKind::kDispatch;
  std::uint64_t fingerprint = 0;  ///< call-site state hash (Fingerprint)
  int options = 0;                ///< number of alternatives (>= 2)
  int chosen = 0;                 ///< index actually taken
};

class Ctrl {
 public:
  static Ctrl& global();

  Ctrl() = default;
  Ctrl(const Ctrl&) = delete;
  Ctrl& operator=(const Ctrl&) = delete;

  bool active() const { return active_; }

  /// Start one controlled execution: the first forced.size() multi-option
  /// choice points take the given indices, later ones take 0. Clears the
  /// trace, the liveness state and any installed hooks.
  void begin(std::vector<int> forced);

  /// Finish the execution: deactivates all taps, drops the liveness hooks
  /// (they capture engine references owned by the scenario) and returns
  /// the executed trace.
  std::vector<Step> end();

  /// Resolve one choice point with @p options alternatives; returns the
  /// index to take (always 0 when inactive or options <= 1). Feeds the
  /// liveness monitor.
  int pick(SiteKind site, int options, std::uint64_t fingerprint);

  /// A unit of real progress completed (an nmad request). Resets the
  /// liveness monitor's no-progress clock and recurrence set.
  void note_completion();

  struct LivenessConfig {
    /// No-progress horizon (virtual ns) before recurrence tracking starts.
    /// Must dominate any legitimate inter-completion gap of the scenario.
    sim::Time horizon = sim::milliseconds(1);
    /// A choice-point fingerprint recurring this many times past the
    /// horizon with zero completions certifies a limit cycle.
    int repeats = 4;
  };

  /// Arm the liveness monitor: @p now supplies the virtual clock, @p stop
  /// halts the engine once a livelock is certified. Re-armable per world.
  void watch(std::function<sim::Time()> now, std::function<void()> stop,
             LivenessConfig cfg);

  bool livelock_detected() const { return livelock_; }
  sim::Time livelock_time() const { return livelock_at_; }
  std::uint64_t livelock_fingerprint() const { return livelock_fp_; }
  std::uint64_t completions() const { return completions_; }

  /// Executed multi-option choice points so far (bounded; see kMaxTrace).
  const std::vector<Step>& trace() const { return trace_; }
  /// Total multi-option choice points seen (can exceed trace().size()).
  std::size_t steps_seen() const { return next_step_; }

  /// Recorded-trace bound: runs keep executing past it (forced choices
  /// never reach that deep -- children only branch at recorded steps), the
  /// trace just stops growing so pathological runs stay bounded.
  static constexpr std::size_t kMaxTrace = 1u << 16;

 private:
  void check_liveness(SiteKind site, std::uint64_t fingerprint);

  bool active_ = false;
  std::vector<int> forced_;
  std::size_t next_step_ = 0;
  std::vector<Step> trace_;

  std::function<sim::Time()> now_fn_;
  std::function<void()> stop_fn_;
  LivenessConfig live_cfg_;
  sim::Time last_progress_ = 0;
  std::unordered_map<std::uint64_t, int> recurrences_;
  std::uint64_t completions_ = 0;
  bool livelock_ = false;
  sim::Time livelock_at_ = 0;
  std::uint64_t livelock_fp_ = 0;
};

/// One-branch guard for instrumented call sites.
inline bool on() { return Ctrl::global().active(); }

inline int pick(SiteKind site, int options, std::uint64_t fingerprint) {
  return Ctrl::global().pick(site, options, fingerprint);
}

inline void note_completion() { Ctrl::global().note_completion(); }

}  // namespace pm2::xpl
