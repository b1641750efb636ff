// pm2sim -- simsan: deterministic concurrency analysis for the simulated
// threading stack.
//
// The simulator runs every interleaving decision on one host thread under a
// virtual clock, so concurrency analysis that is heuristic on real machines
// becomes *reproducible* here: the same seed yields the same event stream,
// the same vector clocks, and byte-identical reports. Three analyses share
// one event stream, tapped from the scheduler (wake/spawn edges), the sync
// primitives (lock acquire/release, signal edges), and the SIMSAN_ACCESS
// annotations on NewMadeleine's declared shared state:
//
//  1. Race detection -- an Eraser-style lockset check combined with
//     FastTrack-style vector-clock happens-before: an access pair races iff
//     it is unordered by happens-before AND the two accesses share no lock.
//     Under LockMode::kNone the collect/matching/transfer lists provably
//     race on the paper's Fig. 3 workload; kCoarse/kFine run clean.
//  2. Lock-order analysis -- a directed graph of "held A while blocking on
//     B" edges with cycle detection. Cycles are flagged even when the two
//     acquisition chains never overlap in (virtual) time.
//  3. Context rules -- the "thread context only" / "hook-safe" comments in
//     sync/ and pioman/ turned into machine-checked rules: a blocking
//     Semaphore::acquire entered from hook context, and blocking while
//     holding a spinlock (the release_library_all() contract).
//
// The analyzer is always compiled and runtime-switchable: disabled, every
// tap is one branch on a global flag and zero allocation; enabled, events
// cost a hash lookup or two. Enable per world via Cluster::enable_simsan()
// (which also routes report timestamps to that world's virtual clock) or
// directly via Analyzer::global().
//
// This header is deliberately free of simthread/sync includes so the
// library sits *below* pm2_simthread in the link order; the inline taps
// that resolve execution contexts to actors live in simsan/context.hpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/partition.hpp"

namespace pm2::sim {
class Engine;
}  // namespace pm2::sim

namespace pm2::san {

/// Actor id of "nobody": the engine context (raw events, world setup) is
/// not a schedulable actor and its accesses are not analyzed.
inline constexpr std::uint32_t kNoActor = 0xffffffffu;

enum class ActorKind : std::uint8_t {
  kThread,  ///< a simulated thread (stable identity: its ThreadContext)
  kHook,    ///< hook/tasklet runs on one (machine, core) -- serialized, so
            ///< all runs on that core form one logical actor
};

enum class FindingKind : std::uint8_t {
  kRace,
  kLockOrderCycle,
  kContextViolation,
};

const char* to_string(FindingKind k);

struct Finding {
  FindingKind kind;
  std::string rule;     ///< short machine-readable id ("write-write-race")
  std::string message;  ///< human text with actor/lock/object names
  std::uint64_t time_ns = 0;  ///< virtual time when detected
};

/// Canonical identity of a finding's *site*, independent of the schedule
/// that produced it: races key on (object, held-lockset) with actor names
/// and virtual-time stamps stripped, context violations on (rule, detail)
/// without the acting actor, everything else on its time-stripped message.
/// Two analyzer shards (or two explored schedules) reporting the same
/// racing site therefore produce the same key -- the unit the merged
/// report and the schedule explorer deduplicate on.
std::string canonical_site_key(FindingKind kind, const std::string& rule,
                               const std::string& message);

/// Cached analyzer slot embedded in an instrumented object. Epoch 0 never
/// matches a live analyzer run, so default-initialized tags re-intern
/// lazily after every reset() -- object construction stays free.
struct SlotTag {
  std::uint32_t id = 0;
  std::uint32_t epoch = 0;
};

/// A declared unit of shared state (a list, a table). Embed one per
/// protected structure and annotate every access with SIMSAN_ACCESS (see
/// simsan/context.hpp). Construction never touches the analyzer.
class Shared {
 public:
  explicit Shared(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  friend class Analyzer;
  std::string name_;
  SlotTag tag_;
};

class Analyzer {
 public:
  /// The calling thread's analyzer shard. With the partitioned engine each
  /// partition gets a private shard (selected via sim::tls_partition, like
  /// the metrics registry's counter shards), so taps stay lock-free and
  /// each shard's event stream -- coming from one partition's deterministic
  /// schedule -- is itself deterministic. Single-partition worlds always
  /// resolve to shard 0, the original process-global instance.
  static Analyzer& global() {
    if (table_ == nullptr) [[unlikely]] publish_table();
    const int p = sim::tls_partition;
    return *table_[p > 0 && p < table_size_ ? p : 0];
  }

  /// Size the shard set for @p n engine partitions (never shrinks; shard 0
  /// always exists). Installed by Cluster::enable_simsan.
  static void configure_shards(int n);
  static int num_shards();
  /// Point global()'s table at the shard store, creating shard 0 on the
  /// first call. Runs before main() and from configure_shards.
  static void publish_table();
  static Analyzer& shard(int i);

  /// Cross-shard report: totals summed; findings visited in shard index
  /// order -- a partition-stable order, so the merged report is
  /// byte-identical for any worker count. Identical sites (same
  /// canonical_site_key: e.g. the same (object, lockset) race observed by
  /// several partition shards at workers > 1) report once, first instance
  /// first, with an occurrence count.
  static std::size_t merged_total_findings();
  static std::string merged_report_json();
  static void merged_print_report(std::FILE* out);

  Analyzer() = default;
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  bool enabled() const { return enabled_; }
  /// Enabling (re-)registers the simsan counters with the metrics registry
  /// (zeroing them); disabling leaves findings readable until reset().
  void set_enabled(bool on);

  /// Wipe all analysis state and findings and start a fresh run. Embedded
  /// SlotTags from previous runs are invalidated by the epoch bump.
  void reset();
  std::uint32_t epoch() const { return epoch_; }

  /// Source of report timestamps (virtual nanoseconds): @p engine's clock,
  /// read through the calling thread's partition. Installed by
  /// Cluster::enable_simsan(); null means "stamp 0".
  void set_clock(const sim::Engine* engine) { clock_ = engine; }

  // --- identity interning ---------------------------------------------------

  std::uint32_t thread_actor(const void* key, const std::string& name);
  std::uint32_t hook_actor(const void* machine, int core,
                           const std::string& node_name);
  /// Slot of a spinlock, a happens-before pseudo-lock (semaphore, flag,
  /// barrier) or a Shared object; the kinds share one table.
  std::uint32_t lock_slot(SlotTag& tag, const std::string& name) {
    return tag.epoch == epoch_ ? tag.id : intern_slot(tag, name);
  }

  // --- event stream ---------------------------------------------------------

  /// A lock was acquired. @p blocking: the caller was prepared to wait
  /// (lock-order edges are recorded); try-acquisitions pass false (a
  /// try_lock can never complete a deadlock cycle).
  void on_acquire(std::uint32_t actor, std::uint32_t lock, bool blocking);
  void on_release(std::uint32_t actor, std::uint32_t lock);

  /// Happens-before publish/observe through a pseudo-lock slot (semaphore
  /// release->acquire, flag set->wait, barrier).
  void hb_release(std::uint32_t actor, std::uint32_t slot);
  void hb_acquire(std::uint32_t actor, std::uint32_t slot);

  /// Direct happens-before edge src -> dst (scheduler wake, thread spawn).
  void on_wake(std::uint32_t src, std::uint32_t dst);

  /// The actor entered a may-block primitive named @p what. Flags the
  /// "never block while holding a spinlock" rule (active waiting is allowed
  /// -- the paper's coarse design busy-waits holding the library lock).
  void on_block(std::uint32_t actor, const char* what);

  /// One access to declared shared state.
  void on_access(std::uint32_t actor, Shared& obj, bool is_write);

  /// Record a context-rule violation. Returns true iff the analyzer is
  /// enabled -- callers use it to soften an assert into a reported finding
  /// during analysis runs:  `if (!report_context(...)) assert(false && ..)`.
  bool report_context(std::uint32_t actor, const char* rule,
                      const std::string& detail);

  // --- results --------------------------------------------------------------

  std::size_t races() const { return races_; }
  std::size_t lock_order_cycles() const { return cycles_; }
  std::size_t context_violations() const { return ctx_violations_; }
  std::size_t total_findings() const {
    return races_ + cycles_ + ctx_violations_;
  }
  const std::vector<Finding>& findings() const { return findings_; }

  /// {"races":N,...,"findings":[{...}]} -- deterministic for a
  /// deterministic run (insertion-ordered, no host state).
  std::string report_json() const;

  /// Human-readable summary + one line per finding.
  void print_report(std::FILE* out) const;

 private:
  using Clock = std::vector<std::uint32_t>;

  struct ActorState {
    std::string name;
    ActorKind kind = ActorKind::kThread;
    Clock clock;                      ///< clock[self] starts at 1
    /// Spinlock slots, acquisition order (every lock that can be held is
    /// a spinlock).
    std::vector<std::uint32_t> held;
  };

  struct LockState {
    std::string name;
    Clock clock;  ///< released-at clock (joined, not assigned)
    /// An actor whose clock covers `clock` (it released last, holding
    /// everything the slot had published), or kNoActor: its acquires have
    /// nothing to join.
    std::uint32_t covered_by = kNoActor;
  };

  struct Access {
    std::uint32_t actor = kNoActor;
    std::uint32_t at = 0;                ///< acting actor's clock[actor]
    std::vector<std::uint32_t> locks;    ///< held lock slots at the access
    std::uint64_t time_ns = 0;
  };

  struct ObjState {
    Access last_write;
    std::vector<Access> reads;  ///< one per actor since the last write
  };

  /// The shard store's entries, read inline by every tap through global().
  static inline constinit Analyzer* const* table_ = nullptr;
  static inline constinit int table_size_ = 0;

  std::uint32_t intern_slot(SlotTag& tag, const std::string& name);
  static void join(Clock& a, const Clock& b);
  /// Publish @p actor's clock through slot @p l (a release): join it into
  /// the slot's clock and note whether the actor's clock now covers it.
  void publish(LockState& l, std::uint32_t actor);
  /// Observe slot @p l as @p actor (an acquire).
  void observe(std::uint32_t actor, const LockState& l);
  std::uint32_t tick(ActorState& a, std::uint32_t self);
  bool ordered_before(const Access& prev, const ActorState& cur) const;
  static bool share_lock(const std::vector<std::uint32_t>& a,
                         const std::vector<std::uint32_t>& b);
  std::uint64_t now() const;
  void add_finding(FindingKind kind, const char* rule, std::string message);
  void report_race(const char* rule, const Access& prev, std::uint32_t actor,
                   const std::string& obj_name, std::uint32_t obj_id);
  void add_order_edge(std::uint32_t from, std::uint32_t to,
                      std::uint32_t actor);
  bool find_path(std::uint32_t from, std::uint32_t to,
                 std::vector<std::uint32_t>& path) const;
  std::string actor_name(std::uint32_t a) const;
  std::string lock_names(const std::vector<std::uint32_t>& locks) const;

  bool enabled_ = false;
  std::uint32_t epoch_ = 1;
  const sim::Engine* clock_ = nullptr;

  std::vector<ActorState> actors_;
  std::unordered_map<const void*, std::uint32_t> thread_actors_;
  std::map<std::pair<const void*, int>, std::uint32_t> hook_actors_;

  std::vector<LockState> locks_;
  std::vector<ObjState> objects_;

  // Lock-order graph: adjacency per lock slot + dedup of recorded edges
  // and reported cycles (by canonical member set).
  std::vector<std::vector<std::uint32_t>> order_adj_;  ///< lock-order edges
  std::unordered_set<std::string> reported_cycles_;

  std::unordered_set<std::uint64_t> reported_races_;
  std::unordered_set<std::string> reported_ctx_;

  std::vector<Finding> findings_;
  std::size_t races_ = 0;
  std::size_t cycles_ = 0;
  std::size_t ctx_violations_ = 0;

  obs::Counter m_races_;
  obs::Counter m_cycles_;
  obs::Counter m_ctx_;
};

}  // namespace pm2::san
