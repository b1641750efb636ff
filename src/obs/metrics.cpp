#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/report.hpp"

namespace pm2::obs {

namespace {

void append_spec(std::string& out, const MetricSpec& spec) {
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

std::string display_key(const MetricSpec& spec) {
  std::string s = spec.component;
  if (!spec.node.empty()) s += "/" + spec.node;
  if (spec.core >= 0) s += "/core" + std::to_string(spec.core);
  s += "/" + spec.name;
  return s;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry g;
  return g;
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

std::string MetricsRegistry::key_of(const std::string& component,
                                    const std::string& node, int core,
                                    const std::string& name) {
  std::string k = component;
  k += '\x1f';
  k += node;
  k += '\x1f';
  k += std::to_string(core);
  k += '\x1f';
  k += name;
  return k;
}

std::string MetricsRegistry::key_of(const MetricSpec& spec) {
  return key_of(spec.component, spec.node, spec.core, spec.name);
}

Counter MetricsRegistry::counter(const MetricSpec& spec) {
  const std::string key = key_of(spec);
  auto it = counter_keys_.find(key);
  if (it != counter_keys_.end()) {
    counters_[it->second] = 0;  // fresh instance, fresh count
    for (auto& sh : shards_) {
      if (it->second < sh->counters.size()) sh->counters[it->second] = 0;
    }
    return Counter(it->second);
  }
  const auto idx = static_cast<std::uint32_t>(counters_.size());
  counters_.push_back(0);
  counter_specs_.push_back(spec);
  counter_keys_.emplace(key, idx);
  return Counter(idx);
}

Gauge MetricsRegistry::gauge(const MetricSpec& spec) {
  const std::string key = key_of(spec);
  auto it = gauge_keys_.find(key);
  if (it != gauge_keys_.end()) {
    gauges_[it->second] = GaugeSlot{};
    return Gauge(it->second);
  }
  const auto idx = static_cast<std::uint32_t>(gauges_.size());
  gauges_.push_back(GaugeSlot{});
  gauge_specs_.push_back(spec);
  gauge_keys_.emplace(key, idx);
  return Gauge(idx);
}

HistogramMetric MetricsRegistry::histogram(const MetricSpec& spec) {
  const std::string key = key_of(spec);
  auto it = hist_keys_.find(key);
  if (it != hist_keys_.end()) {
    hists_[it->second] = HistSlot{};
    for (auto& sh : shards_) {
      if (it->second < sh->hists.size()) sh->hists[it->second] = HistSlot{};
    }
    return HistogramMetric(it->second);
  }
  const auto idx = static_cast<std::uint32_t>(hists_.size());
  hists_.push_back(HistSlot{});
  hist_specs_.push_back(spec);
  hist_keys_.emplace(key, idx);
  return HistogramMetric(idx);
}

std::optional<std::uint64_t> MetricsRegistry::counter_value(
    const std::string& component, const std::string& node,
    const std::string& name, int core) const {
  auto it = counter_keys_.find(key_of(component, node, core, name));
  if (it == counter_keys_.end()) return std::nullopt;
  return counter_total(it->second);
}

std::optional<std::int64_t> MetricsRegistry::gauge_value(
    const std::string& component, const std::string& node,
    const std::string& name, int core) const {
  auto it = gauge_keys_.find(key_of(component, node, core, name));
  if (it == gauge_keys_.end()) return std::nullopt;
  return gauges_[it->second].value;
}

std::optional<std::uint64_t> MetricsRegistry::histogram_count(
    const std::string& component, const std::string& node,
    const std::string& name, int core) const {
  auto it = hist_keys_.find(key_of(component, node, core, name));
  if (it == hist_keys_.end()) return std::nullopt;
  return hist_total(it->second).count;
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
    append_spec(out, counter_specs_[i]);
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
    append_spec(out, gauge_specs_[i]);
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
    append_spec(out, hist_specs_[i]);
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
  for (const auto& s : counter_specs_) width = std::max(width, display_key(s).size());
  for (const auto& s : gauge_specs_) width = std::max(width, display_key(s).size());
  for (const auto& s : hist_specs_) width = std::max(width, display_key(s).size());

  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-*s %20llu\n", static_cast<int>(width),
                  display_key(counter_specs_[i]).c_str(),
                  static_cast<unsigned long long>(
                      counter_total(static_cast<std::uint32_t>(i))));
    out += buf;
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%-*s %20lld  (max %lld)\n",
                  static_cast<int>(width),
                  display_key(gauge_specs_[i]).c_str(),
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
                  display_key(hist_specs_[i]).c_str(),
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
