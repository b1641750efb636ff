// pm2sim -- process-global metrics registry (the paper's measurement layer).
//
// Every quantity the paper tabulates -- lock acquisitions/contention,
// per-core context switches, PIOMan poll counts, NIC byte counters -- is
// registered here once at component construction and updated through cheap
// handles. The hot-path contract:
//
//   * with a sink attached (registry enabled): one branch + one array store;
//   * with no sink: one branch.
//
// Handles are small indices into flat arrays owned by the registry; no
// allocation happens after registration. Instruments are keyed by
// (component, node, core, name); re-registering an existing key returns the
// same slot *zeroed*, so sequentially-constructed worlds (one Cluster per
// benchmark rep) each start from a clean count without growing the store.
// A registration passes its key as views, the name in two parts, and the
// registry looks the slot up with a hash and an equality that take the parts
// as they are: re-registering a world's instruments builds no string.
//
// The registry is never consulted for simulation decisions and instruments
// are host-side only (no virtual-time charges), so enabling it cannot
// perturb virtual-time results.
// With the partitioned engine, events of different partitions execute on
// different host threads concurrently. Counters and histograms are therefore
// *sharded*: shard 0 is the original flat arrays, and each additional
// partition writes a private shard selected through sim::tls_partition --
// still one branch + one array store on the hot path, with no atomics and no
// false sharing. Every read path (value(), lookups, to_json, to_table) sums
// the shards, so reports are identical to the unsharded registry. Gauges are
// not sharded: every in-tree gauge has a single owning component, which
// lives in exactly one partition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "simcore/partition.hpp"

namespace pm2::obs {

/// Identity of one instrument, as a registration or lookup names it. `node`
/// is the machine name ("node0"); empty means process-wide. `core` is -1
/// unless the instrument is core-scoped. The name is `name` followed by
/// `suffix`, so a component that registers a family of instruments under
/// one prefix (a lock's "<lock>.acquisitions", "<lock>.contentions", ...)
/// passes the parts instead of composing each name. The views need only
/// outlive the call.
struct MetricSpec {
  std::string_view component;
  std::string_view node;
  int core = -1;
  std::string_view name;
  std::string_view suffix = {};
};

class Counter;
class Gauge;
class HistogramMetric;

class MetricsRegistry {
 public:
  /// The process-global instance, read inline by every instrument update:
  /// it is published before main() (or by the first call, from a static
  /// initializer that runs earlier), so the hot path pays one load.
  static MetricsRegistry& global() {
    if (global_ == nullptr) [[unlikely]] publish_global();
    return *global_;
  }
  /// Create the global instance and publish it to global(). Runs before
  /// main().
  static void publish_global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The sink switch: instruments store only while enabled.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Size the write shards for @p n engine partitions (shard 0 is the
  /// primary store; partitions 1..n-1 get private shards). Never shrinks,
  /// so stale partition ids stay in range between worlds; shard contents
  /// are zeroed by re-registration and reset_values() like the primary.
  void set_shards(int n);

  /// Register (or re-acquire, zeroing the slot) an instrument.
  Counter counter(const MetricSpec& spec);
  Gauge gauge(const MetricSpec& spec);
  HistogramMetric histogram(const MetricSpec& spec);

  // --- lookups (tests, reports) -------------------------------------------

  std::optional<std::uint64_t> counter_value(std::string_view component,
                                             std::string_view node,
                                             std::string_view name,
                                             int core = -1) const;
  std::optional<std::int64_t> gauge_value(std::string_view component,
                                          std::string_view node,
                                          std::string_view name,
                                          int core = -1) const;
  /// Sample count of a histogram (nullopt if not registered).
  std::optional<std::uint64_t> histogram_count(std::string_view component,
                                               std::string_view node,
                                               std::string_view name,
                                               int core = -1) const;

  std::size_t num_counters() const { return counters_.size(); }
  std::size_t num_gauges() const { return gauges_.size(); }
  std::size_t num_histograms() const { return hists_.size(); }

  /// Zero every value (registrations survive).
  void reset_values();

  /// Full dump: {"counters":[...],"gauges":[...],"histograms":[...]}.
  std::string to_json() const;

  /// Human-readable aligned table (one instrument per line).
  std::string to_table() const;

  /// Write to_json() to @p path; throws on I/O failure.
  void write_json(const std::string& path) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class HistogramMetric;

  struct GaugeSlot {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  /// Power-of-two buckets: bucket 0 holds value 0, bucket i >= 1 holds
  /// [2^(i-1), 2^i).
  struct HistSlot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t buckets[64] = {};
  };

  /// One partition's private write store (lazily sized on first write, so
  /// registration order and shard count are independent).
  struct Shard {
    std::vector<std::uint64_t> counters;
    std::vector<HistSlot> hists;
  };

  /// Cell the calling thread's counter writes land in.
  std::uint64_t& counter_cell(std::uint32_t idx) {
    const int s = sim::tls_partition;
    if (s <= 0 || shards_.empty()) return counters_[idx];
    auto& v = shard(s).counters;
    if (v.size() <= idx) v.resize(std::max(counters_.size(), idx + 1ul), 0);
    return v[idx];
  }

  /// Slot the calling thread's histogram writes land in.
  HistSlot& hist_cell(std::uint32_t idx) {
    const int s = sim::tls_partition;
    if (s <= 0 || shards_.empty()) return hists_[idx];
    auto& v = shard(s).hists;
    if (v.size() <= idx) v.resize(std::max(hists_.size(), idx + 1ul));
    return v[idx];
  }

  Shard& shard(int partition) {
    const std::size_t i =
        std::min(static_cast<std::size_t>(partition), shards_.size()) - 1;
    return *shards_[i];
  }

  std::uint64_t counter_total(std::uint32_t idx) const;
  HistSlot hist_total(std::uint32_t idx) const;

  /// A registered instrument's identity, as the reports print it.
  struct Identity {
    std::string component;
    std::string node;
    int core = -1;
    std::string name;
  };

  /// One instrument kind's identities in registration order, and the set
  /// of their slots, which a spec looks up without being composed: the set
  /// hashes a slot through its identity, and a spec's parts as the same
  /// byte stream, and compares the parts with the identity in place.
  class Index {
   public:
    Index() : slots_(0, Keys{&ids_}, Keys{&ids_}) {}
    Index(const Index&) = delete;
    Index& operator=(const Index&) = delete;

    /// Slot of @p spec, or kInvalidMetric.
    std::uint32_t find(const MetricSpec& spec) const;
    /// Slot of @p spec, recorded as the next slot if it is new, which
    /// @p added reports.
    std::uint32_t intern(const MetricSpec& spec, bool& added);
    const std::vector<Identity>& ids() const { return ids_; }

   private:
    /// The set's hash (one argument) and equality (two).
    struct Keys {
      using is_transparent = void;
      const std::vector<Identity>* ids;
      std::size_t operator()(std::uint32_t slot) const;
      std::size_t operator()(const MetricSpec& spec) const;
      bool operator()(std::uint32_t a, std::uint32_t b) const { return a == b; }
      bool operator()(const MetricSpec& spec, std::uint32_t slot) const;
      bool operator()(std::uint32_t slot, const MetricSpec& spec) const {
        return (*this)(spec, slot);
      }
    };

    std::vector<Identity> ids_;
    std::unordered_set<std::uint32_t, Keys, Keys> slots_;
  };

  static inline constinit MetricsRegistry* global_ = nullptr;

  bool enabled_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< partitions 1..n-1

  std::vector<std::uint64_t> counters_;
  Index counter_index_;

  std::vector<GaugeSlot> gauges_;
  Index gauge_index_;

  std::vector<HistSlot> hists_;
  Index hist_index_;
};

inline constexpr std::uint32_t kInvalidMetric = 0xffffffffu;

/// Monotone event count. Default-constructed handles are inert.
class Counter {
 public:
  Counter() = default;

  bool valid() const { return idx_ != kInvalidMetric; }

  /// Hot path: branch + array add while the registry is enabled.
  void inc(std::uint64_t delta = 1) {
    MetricsRegistry& r = MetricsRegistry::global();
    if (r.enabled_ && idx_ != kInvalidMetric) r.counter_cell(idx_) += delta;
  }

  /// Unconditional add, for counters documented as always-on (the nmad
  /// core's traffic counters: sends, recvs, progress_passes, ...). Still one
  /// array store; independent of enabled().
  void add_always(std::uint64_t delta = 1) {
    if (idx_ != kInvalidMetric)
      MetricsRegistry::global().counter_cell(idx_) += delta;
  }

  std::uint64_t value() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().counter_total(idx_)
               : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = kInvalidMetric;
};

/// Last-value instrument that also tracks its high-water mark.
class Gauge {
 public:
  Gauge() = default;

  bool valid() const { return idx_ != kInvalidMetric; }

  void set(std::int64_t v) {
    MetricsRegistry& r = MetricsRegistry::global();
    if (r.enabled_ && idx_ != kInvalidMetric) {
      auto& slot = r.gauges_[idx_];
      slot.value = v;
      if (v > slot.max) slot.max = v;
    }
  }

  std::int64_t value() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().gauges_[idx_].value
               : 0;
  }
  std::int64_t max() const {
    return idx_ != kInvalidMetric ? MetricsRegistry::global().gauges_[idx_].max
                                  : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = kInvalidMetric;
};

/// Fixed power-of-two-bucket histogram (no allocation on observe).
class HistogramMetric {
 public:
  HistogramMetric() = default;

  bool valid() const { return idx_ != kInvalidMetric; }

  void observe(std::uint64_t v) {
    MetricsRegistry& r = MetricsRegistry::global();
    if (r.enabled_ && idx_ != kInvalidMetric) {
      auto& slot = r.hist_cell(idx_);
      if (slot.count == 0 || v < slot.min) slot.min = v;
      if (v > slot.max) slot.max = v;
      ++slot.count;
      slot.sum += v;
      ++slot.buckets[bucket_of(v)];
    }
  }

  std::uint64_t count() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().hist_total(idx_).count
               : 0;
  }
  std::uint64_t sum() const {
    return idx_ != kInvalidMetric
               ? MetricsRegistry::global().hist_total(idx_).sum
               : 0;
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Bucket index covering @p v (0 -> value 0; i >= 1 -> [2^(i-1), 2^i)).
  static int bucket_of(std::uint64_t v) {
    int b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b > 63 ? 63 : b;
  }

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_ = kInvalidMetric;
};

}  // namespace pm2::obs
