#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace pm2::obs {
namespace {

/// The registry is process-global: every test restores enabled=false so the
/// other suites in this binary (and their Clusters) see the default state.
class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { MetricsRegistry::global().set_enabled(false); }
};

TEST_F(MetricsTest, RegisterIncrementLookup) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "hits"});
  ASSERT_TRUE(c.valid());
  reg.set_enabled(true);
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
  auto v = reg.counter_value("testm", "nodeA", "hits");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4u);
}

TEST_F(MetricsTest, DisabledIncIsNoOp) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "gated"});
  reg.set_enabled(false);
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);
  reg.set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(MetricsTest, AddAlwaysIgnoresEnabledSwitch) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "always"});
  reg.set_enabled(false);
  c.add_always(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(MetricsTest, ReRegisterZeroesSlotWithoutGrowing) {
  auto& reg = MetricsRegistry::global();
  Counter c1 = reg.counter({"testm", "nodeA", 2, "reused"});
  reg.set_enabled(true);
  c1.inc(5);
  const std::size_t n = reg.num_counters();
  // A new world re-registers the same identity: same slot, count reset.
  Counter c2 = reg.counter({"testm", "nodeA", 2, "reused"});
  EXPECT_EQ(reg.num_counters(), n);
  EXPECT_EQ(c2.value(), 0u);
  EXPECT_EQ(c1.value(), 0u);  // same slot
  c2.inc();
  EXPECT_EQ(c1.value(), 1u);
}

TEST_F(MetricsTest, CoreScopedKeysAreDistinct) {
  auto& reg = MetricsRegistry::global();
  Counter c0 = reg.counter({"testm", "nodeA", 0, "per_core"});
  Counter c1 = reg.counter({"testm", "nodeA", 1, "per_core"});
  reg.set_enabled(true);
  c0.inc(2);
  c1.inc(9);
  EXPECT_EQ(reg.counter_value("testm", "nodeA", "per_core", 0), 2u);
  EXPECT_EQ(reg.counter_value("testm", "nodeA", "per_core", 1), 9u);
}

TEST_F(MetricsTest, LookupMissingReturnsNullopt) {
  auto& reg = MetricsRegistry::global();
  EXPECT_FALSE(reg.counter_value("testm", "nodeA", "no-such").has_value());
  EXPECT_FALSE(reg.gauge_value("testm", "nodeA", "no-such").has_value());
  EXPECT_FALSE(reg.histogram_count("testm", "nodeA", "no-such").has_value());
}

TEST_F(MetricsTest, DefaultHandlesAreInert) {
  Counter c;
  Gauge g;
  HistogramMetric h;
  EXPECT_FALSE(c.valid());
  MetricsRegistry::global().set_enabled(true);
  c.inc();
  c.add_always();
  g.set(5);
  h.observe(5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, GaugeTracksHighWaterMark) {
  auto& reg = MetricsRegistry::global();
  Gauge g = reg.gauge({"testm", "nodeA", -1, "depth"});
  reg.set_enabled(true);
  g.set(3);
  g.set(11);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 11);
  EXPECT_EQ(reg.gauge_value("testm", "nodeA", "depth"), 2);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  EXPECT_EQ(HistogramMetric::bucket_of(0), 0);
  EXPECT_EQ(HistogramMetric::bucket_of(1), 1);
  EXPECT_EQ(HistogramMetric::bucket_of(2), 2);
  EXPECT_EQ(HistogramMetric::bucket_of(3), 2);
  EXPECT_EQ(HistogramMetric::bucket_of(4), 3);
  EXPECT_EQ(HistogramMetric::bucket_of(1023), 10);
  EXPECT_EQ(HistogramMetric::bucket_of(1024), 11);
  EXPECT_EQ(HistogramMetric::bucket_of(~0ull), 63);

  auto& reg = MetricsRegistry::global();
  HistogramMetric h = reg.histogram({"testm", "nodeA", -1, "lat_ns"});
  reg.set_enabled(true);
  h.observe(10);
  h.observe(70);
  h.observe(70);
  h.observe(0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 150u);
  EXPECT_DOUBLE_EQ(h.mean(), 37.5);
  EXPECT_EQ(reg.histogram_count("testm", "nodeA", "lat_ns"), 4u);
}

TEST_F(MetricsTest, ResetValuesKeepsRegistrations) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeA", -1, "resettable"});
  Gauge g = reg.gauge({"testm", "nodeA", -1, "resettable_g"});
  HistogramMetric h = reg.histogram({"testm", "nodeA", -1, "resettable_h"});
  reg.set_enabled(true);
  c.inc(4);
  g.set(9);
  h.observe(16);
  const std::size_t n = reg.num_counters();
  reg.reset_values();
  EXPECT_EQ(reg.num_counters(), n);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, JsonAndTableCarryTheInstruments) {
  auto& reg = MetricsRegistry::global();
  Counter c = reg.counter({"testm", "nodeB", 3, "json_hits"});
  HistogramMetric h = reg.histogram({"testm", "nodeB", -1, "json_ns"});
  reg.set_enabled(true);
  c.inc(42);
  h.observe(5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"component\":\"testm\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"core\":3"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  const std::string table = reg.to_table();
  EXPECT_NE(table.find("json_hits"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
}

}  // namespace
}  // namespace pm2::obs
