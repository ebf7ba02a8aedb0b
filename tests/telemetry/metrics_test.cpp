#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace anor::telemetry {
namespace {

TEST(MetricKey, CanonicalFormSortsLabels) {
  EXPECT_EQ(metric_key("node.msr.reads", {}), "node.msr.reads");
  EXPECT_EQ(metric_key("job.power_w", {{"job", "bt.D.x#4"}}), "job.power_w{job=bt.D.x#4}");
  EXPECT_EQ(metric_key("x", {{"b", "2"}, {"a", "1"}}), "x{a=1,b=2}");
  EXPECT_EQ(metric_key("x", {{"a", "1"}, {"b", "2"}}), "x{a=1,b=2}");
}

TEST(Counter, IncAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge gauge;
  gauge.set(10.0);
  gauge.add(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 12.5);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(Histogram, BucketEdgesAreUpperInclusive) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.observe(0.5);                 // bucket 0 (<= 1.0)
  histogram.observe(1.0);                 // bucket 0: edge lands in the lower bucket
  histogram.observe(1.0000001);           // bucket 1
  histogram.observe(4.0);                 // bucket 2
  histogram.observe(100.0);               // overflow bucket
  EXPECT_EQ(histogram.bucket_size(), 4u);
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 1u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_NEAR(histogram.sum(), 0.5 + 1.0 + 1.0000001 + 4.0 + 100.0, 1e-9);
  EXPECT_NEAR(histogram.mean(), histogram.sum() / 5.0, 1e-12);
}

TEST(Histogram, BoundHelpers) {
  EXPECT_EQ(linear_bounds(0.0, 4.0, 3), (std::vector<double>{0.0, 4.0, 8.0}));
  EXPECT_EQ(exponential_bounds(1.0, 2.0, 4), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(MetricsRegistry, FindOrCreateReturnsSameCell) {
  MetricsRegistry registry;
  Counter& a = registry.counter("c", {{"k", "v"}});
  Counter& b = registry.counter("c", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("c", {{"k", "w"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("m");
  EXPECT_THROW(registry.gauge("m"), util::ConfigError);
  EXPECT_THROW(registry.histogram("m", {1.0}), util::ConfigError);
}

TEST(MetricsRegistry, ResetValuesKeepsHandlesValid) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  Gauge& gauge = registry.gauge("g");
  Histogram& histogram = registry.histogram("h", {1.0, 2.0});
  counter.inc(7);
  gauge.set(3.0);
  histogram.observe(1.5);
  registry.reset_values();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.bucket_count(1), 0u);
  counter.inc();  // handle still live after reset
  EXPECT_EQ(counter.value(), 1u);
  EXPECT_EQ(registry.size(), 3u);
}

// The registry backs instrumentation on concurrently running control
// loops (TCP transport threads, thread-pooled trials): totals must be
// exact, not approximate.
TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hot.counter");
  Gauge& gauge = registry.gauge("hot.gauge");
  // Bounds {0,1,...,7}: task i's observations land exactly in bucket i.
  Histogram& histogram = registry.histogram("hot.histogram", linear_bounds(0.0, 1.0, 8));

  constexpr std::size_t kTasks = 8;
  constexpr int kPerTask = 20000;
  std::vector<std::thread> threads;
  for (std::size_t task = 0; task < kTasks; ++task) {
    threads.emplace_back([&, task] {
      for (int i = 0; i < kPerTask; ++i) {
        counter.inc();
        gauge.add(1.0);
        histogram.observe(static_cast<double>(task));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kTasks * kPerTask));
  EXPECT_EQ(histogram.count(), kTasks * kPerTask);
  for (std::size_t task = 0; task < kTasks; ++task) {
    EXPECT_EQ(histogram.bucket_count(task), static_cast<std::uint64_t>(kPerTask))
        << "bucket " << task;
  }
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (std::size_t task = 0; task < 16; ++task) {
    // All tasks race to register the same handful of keys.
    threads.emplace_back([&registry, task] {
      registry.counter("shared.counter", {{"i", std::to_string(task % 4)}}).inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.size(), 4u);
  std::uint64_t total = 0;
  for (const MetricSnapshot& snap : registry.snapshot()) {
    total += static_cast<std::uint64_t>(snap.value);
  }
  EXPECT_EQ(total, 16u);
}

TEST(MetricsRegistry, SnapshotIsKeySorted) {
  MetricsRegistry registry;
  registry.counter("z.last");
  registry.gauge("a.first");
  registry.histogram("m.mid", {1.0});
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].key, "a.first");
  EXPECT_EQ(snaps[1].key, "m.mid");
  EXPECT_EQ(snaps[2].key, "z.last");
  EXPECT_EQ(snaps[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snaps[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snaps[2].kind, MetricKind::kCounter);
}

TEST(MetricsRegistry, JsonAndCsvExports) {
  MetricsRegistry registry;
  registry.counter("c").inc(3);
  registry.gauge("g").set(1.5);
  Histogram& histogram = registry.histogram("h", {1.0, 2.0});
  histogram.observe(0.5);
  histogram.observe(1.5);

  const util::Json json = registry.to_json();
  const auto& obj = json.as_object();
  EXPECT_DOUBLE_EQ(obj.at("c").at("value").as_number(), 3.0);
  EXPECT_EQ(obj.at("c").at("type").as_string(), "counter");
  EXPECT_DOUBLE_EQ(obj.at("g").at("value").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(obj.at("h").at("value").as_number(), 2.0);  // histogram value = count
  EXPECT_DOUBLE_EQ(obj.at("h").at("sum").as_number(), 2.0);
  EXPECT_EQ(obj.at("h").at("buckets").as_array().size(), 3u);

  std::ostringstream csv;
  registry.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("metric,type,value,sum"), std::string::npos);
  EXPECT_NE(text.find("c,counter,3"), std::string::npos);
  EXPECT_NE(text.find("g,gauge,1.5"), std::string::npos);
  EXPECT_NE(text.find("h,histogram,2"), std::string::npos);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace anor::telemetry
