#include "geopm/endpoint.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace anor::geopm {
namespace {

TEST(Endpoint, PolicyLatestWins) {
  Endpoint endpoint;
  EXPECT_FALSE(endpoint.read_policy().has_value());
  endpoint.write_policy(1.0, {200.0});
  endpoint.write_policy(2.0, {180.0});
  endpoint.write_policy(3.0, {160.0});
  const auto policy = endpoint.read_policy();
  ASSERT_TRUE(policy.has_value());
  EXPECT_DOUBLE_EQ(policy->timestamp_s, 3.0);
  EXPECT_DOUBLE_EQ(policy->policy[0], 160.0);
  // Superseded policies are consumed.
  EXPECT_FALSE(endpoint.read_policy().has_value());
}

TEST(Endpoint, SamplesDrainInOrder) {
  Endpoint endpoint;
  endpoint.write_sample(1.0, {100.0});
  endpoint.write_sample(2.0, {110.0});
  std::vector<TimedSample> samples;
  ASSERT_EQ(endpoint.read_samples(samples), 2u);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].timestamp_s, 1.0);
  EXPECT_DOUBLE_EQ(samples[1].timestamp_s, 2.0);
  EXPECT_DOUBLE_EQ(samples[1].sample[0], 110.0);
  // A second drain replaces the buffer's contents with nothing.
  EXPECT_EQ(endpoint.read_samples(samples), 0u);
  EXPECT_TRUE(samples.empty());
}

TEST(Endpoint, LatestSampleRemembered) {
  Endpoint endpoint;
  EXPECT_FALSE(endpoint.latest_sample().has_value());
  endpoint.write_sample(1.0, {100.0});
  endpoint.write_sample(5.0, {130.0});
  std::vector<TimedSample> drained;
  endpoint.read_samples(drained);
  const auto latest = endpoint.latest_sample();
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->timestamp_s, 5.0);
  // Draining again (empty) must not clear the latest.
  endpoint.read_samples(drained);
  EXPECT_TRUE(endpoint.latest_sample().has_value());
}

TEST(Endpoint, FullRingRejectsWrites) {
  Endpoint endpoint(2);
  EXPECT_TRUE(endpoint.write_policy(1.0, {1.0}));
  EXPECT_TRUE(endpoint.write_policy(2.0, {2.0}));
  EXPECT_FALSE(endpoint.write_policy(3.0, {3.0}));
  endpoint.read_policy();
  EXPECT_TRUE(endpoint.write_policy(4.0, {4.0}));
}

TEST(Endpoint, CrossThreadHandoff) {
  Endpoint endpoint(128);
  constexpr int kCount = 5000;
  std::thread agent([&endpoint] {
    for (int i = 0; i < kCount;) {
      if (endpoint.write_sample(static_cast<double>(i), {static_cast<double>(i)})) ++i;
    }
  });
  int received = 0;
  double last = -1.0;
  std::vector<TimedSample> drained;
  while (received < kCount) {
    endpoint.read_samples(drained);
    for (const auto& s : drained) {
      EXPECT_GT(s.timestamp_s, last);
      last = s.timestamp_s;
      ++received;
    }
  }
  agent.join();
  EXPECT_EQ(received, kCount);
}

}  // namespace
}  // namespace anor::geopm
