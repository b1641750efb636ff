#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/report.hpp"

namespace pm2::obs {

namespace {

/// FNV-1a over an identity's parts as one byte stream; a name given in two
/// parts hashes like the name they make up.
std::size_t hash_parts(std::string_view component, std::string_view node,
                       int core, std::string_view name,
                       std::string_view suffix = {}) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(component);
  mix("\x1f");
  mix(node);
  mix("\x1f");
  const auto c = static_cast<std::uint32_t>(core);
  mix(std::string_view(reinterpret_cast<const char*>(&c), sizeof(c)));
  mix(name);
  mix(suffix);
  return static_cast<std::size_t>(h);
}

template <typename Id>
void append_spec(std::string& out, const Id& spec) {
  out += "\"component\":";
  append_json_string(out, spec.component);
  out += ",\"node\":";
  append_json_string(out, spec.node);
  if (spec.core >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"core\":%d", spec.core);
    out += buf;
  }
  out += ",\"name\":";
  append_json_string(out, spec.name);
}

template <typename Id>
std::string display_key(const Id& spec) {
  std::string s = spec.component;
  if (!spec.node.empty()) s += "/" + spec.node;
  if (spec.core >= 0) s += "/core" + std::to_string(spec.core);
  s += "/" + spec.name;
  return s;
}

}  // namespace

void MetricsRegistry::publish_global() {
  static MetricsRegistry g;
  global_ = &g;
}

namespace {
// Publish before main(), while the process has one thread, so worker
// threads never race on the lazy first publication in global().
[[maybe_unused]] const bool kGlobalPublished =
    (MetricsRegistry::publish_global(), true);
}  // namespace

std::size_t MetricsRegistry::Index::Keys::operator()(
    std::uint32_t slot) const {
  const Identity& id = (*ids)[slot];
  return hash_parts(id.component, id.node, id.core, id.name);
}

std::size_t MetricsRegistry::Index::Keys::operator()(
    const MetricSpec& spec) const {
  return hash_parts(spec.component, spec.node, spec.core, spec.name,
                    spec.suffix);
}

bool MetricsRegistry::Index::Keys::operator()(const MetricSpec& spec,
                                              std::uint32_t slot) const {
  const Identity& id = (*ids)[slot];
  const std::string_view name = id.name;
  return id.core == spec.core && id.component == spec.component &&
         id.node == spec.node &&
         name.size() == spec.name.size() + spec.suffix.size() &&
         name.starts_with(spec.name) && name.ends_with(spec.suffix);
}

std::uint32_t MetricsRegistry::Index::find(const MetricSpec& spec) const {
  const auto it = slots_.find(spec);
  return it == slots_.end() ? kInvalidMetric : *it;
}

std::uint32_t MetricsRegistry::Index::intern(const MetricSpec& spec,
                                             bool& added) {
  const auto it = slots_.find(spec);
  added = it == slots_.end();
  if (!added) return *it;
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  std::string name;
  name.reserve(spec.name.size() + spec.suffix.size());
  name.append(spec.name).append(spec.suffix);
  ids_.push_back(Identity{std::string(spec.component), std::string(spec.node),
                          spec.core, std::move(name)});
  slots_.insert(slot);
  return slot;
}

void MetricsRegistry::set_shards(int n) {
  const std::size_t extra = n > 1 ? static_cast<std::size_t>(n - 1) : 0;
  while (shards_.size() < extra) shards_.push_back(std::make_unique<Shard>());
}

std::uint64_t MetricsRegistry::counter_total(std::uint32_t idx) const {
  std::uint64_t total = counters_[idx];
  for (const auto& sh : shards_) {
    if (idx < sh->counters.size()) total += sh->counters[idx];
  }
  return total;
}

MetricsRegistry::HistSlot MetricsRegistry::hist_total(
    std::uint32_t idx) const {
  HistSlot total = hists_[idx];
  for (const auto& sh : shards_) {
    if (idx >= sh->hists.size()) continue;
    const HistSlot& h = sh->hists[idx];
    if (h.count == 0) continue;
    if (total.count == 0 || h.min < total.min) total.min = h.min;
    if (h.max > total.max) total.max = h.max;
    total.count += h.count;
    total.sum += h.sum;
    for (int b = 0; b < 64; ++b) total.buckets[b] += h.buckets[b];
  }
  return total;
}

Counter MetricsRegistry::counter(const MetricSpec& spec) {
  bool added = false;
  const std::uint32_t idx = counter_index_.intern(spec, added);
  if (added) {
    counters_.push_back(0);
    return Counter(idx);
  }
  counters_[idx] = 0;  // fresh instance, fresh count
  for (auto& sh : shards_) {
    if (idx < sh->counters.size()) sh->counters[idx] = 0;
  }
  return Counter(idx);
}

Gauge MetricsRegistry::gauge(const MetricSpec& spec) {
  bool added = false;
  const std::uint32_t idx = gauge_index_.intern(spec, added);
  if (added) {
    gauges_.push_back(GaugeSlot{});
  } else {
    gauges_[idx] = GaugeSlot{};
  }
  return Gauge(idx);
}

HistogramMetric MetricsRegistry::histogram(const MetricSpec& spec) {
  bool added = false;
  const std::uint32_t idx = hist_index_.intern(spec, added);
  if (added) {
    hists_.push_back(HistSlot{});
    return HistogramMetric(idx);
  }
  hists_[idx] = HistSlot{};
  for (auto& sh : shards_) {
    if (idx < sh->hists.size()) sh->hists[idx] = HistSlot{};
  }
  return HistogramMetric(idx);
}

std::optional<std::uint64_t> MetricsRegistry::counter_value(
    std::string_view component, std::string_view node, std::string_view name,
    int core) const {
  const std::uint32_t idx = counter_index_.find({component, node, core, name});
  if (idx == kInvalidMetric) return std::nullopt;
  return counter_total(idx);
}

std::optional<std::int64_t> MetricsRegistry::gauge_value(
    std::string_view component, std::string_view node, std::string_view name,
    int core) const {
  const std::uint32_t idx = gauge_index_.find({component, node, core, name});
  if (idx == kInvalidMetric) return std::nullopt;
  return gauges_[idx].value;
}

std::optional<std::uint64_t> MetricsRegistry::histogram_count(
    std::string_view component, std::string_view node, std::string_view name,
    int core) const {
  const std::uint32_t idx = hist_index_.find({component, node, core, name});
  if (idx == kInvalidMetric) return std::nullopt;
  return hist_total(idx).count;
}

void MetricsRegistry::reset_values() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), GaugeSlot{});
  std::fill(hists_.begin(), hists_.end(), HistSlot{});
  for (auto& sh : shards_) {
    sh->counters.clear();  // lazily regrown on next sharded write
    sh->hists.clear();
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"schema\":\"pm2sim-metrics-v1\",\"counters\":[";
  char buf[96];
  bool first = true;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{";
    append_spec(out, counter_index_.ids()[i]);
    std::snprintf(
        buf, sizeof(buf), ",\"value\":%llu}",
        static_cast<unsigned long long>(
            counter_total(static_cast<std::uint32_t>(i))));
    out += buf;
  }
  out += "\n],\"gauges\":[";
  first = true;
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{";
    append_spec(out, gauge_index_.ids()[i]);
    std::snprintf(buf, sizeof(buf), ",\"value\":%lld,\"max\":%lld}",
                  static_cast<long long>(gauges_[i].value),
                  static_cast<long long>(gauges_[i].max));
    out += buf;
  }
  out += "\n],\"histograms\":[";
  first = true;
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "\n{";
    append_spec(out, hist_index_.ids()[i]);
    const HistSlot h = hist_total(static_cast<std::uint32_t>(i));
    std::snprintf(buf, sizeof(buf),
                  ",\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out += buf;
    out += ",\"buckets\":[";
    bool bfirst = true;
    for (int b = 0; b < 64; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
      const unsigned long long lo = b == 0 ? 0 : 1ull << (b - 1);
      std::snprintf(buf, sizeof(buf), "{\"lo\":%llu,\"n\":%llu}", lo,
                    static_cast<unsigned long long>(h.buckets[b]));
      out += buf;
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string MetricsRegistry::to_table() const {
  std::size_t width = 0;
  for (const Index* index : {&counter_index_, &gauge_index_, &hist_index_}) {
    for (const Identity& id : index->ids()) {
      width = std::max(width, display_key(id).size());
    }
  }

  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-*s %20llu\n", static_cast<int>(width),
                  display_key(counter_index_.ids()[i]).c_str(),
                  static_cast<unsigned long long>(
                      counter_total(static_cast<std::uint32_t>(i))));
    out += buf;
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-*s %20lld  (max %lld)\n",
                  static_cast<int>(width),
                  display_key(gauge_index_.ids()[i]).c_str(),
                  static_cast<long long>(gauges_[i].value),
                  static_cast<long long>(gauges_[i].max));
    out += buf;
  }
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const HistSlot h = hist_total(static_cast<std::uint32_t>(i));
    const double mean =
        h.count == 0 ? 0.0
                     : static_cast<double>(h.sum) / static_cast<double>(h.count);
    std::snprintf(buf, sizeof(buf),
                  "%-*s %20llu  (mean %.1f, min %llu, max %llu)\n",
                  static_cast<int>(width),
                  display_key(hist_index_.ids()[i]).c_str(),
                  static_cast<unsigned long long>(h.count), mean,
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("MetricsRegistry: cannot open " + path);
  f << to_json();
  if (!f) throw std::runtime_error("MetricsRegistry: write failed: " + path);
}

}  // namespace pm2::obs
