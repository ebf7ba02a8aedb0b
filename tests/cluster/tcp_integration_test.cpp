// Full tier link over a real TCP socket: a ClusterManager serving budgets
// through a TcpChannel to a real JobEndpointProcess (with its modeler and
// feedback machinery) attached to a real GEOPM endpoint — the deployment
// topology of paper Fig. 2, minus only the virtual silicon behind it.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/cluster_manager.hpp"
#include "cluster/job_endpoint.hpp"
#include "cluster/tcp_transport.hpp"
#include "geopm/endpoint.hpp"
#include "geopm/signals.hpp"
#include "model/default_models.hpp"
#include "util/clock.hpp"

namespace anor::cluster {
namespace {

std::unique_ptr<TcpChannel> accept_one(TcpListener& listener) {
  for (int i = 0; i < 500; ++i) {
    if (auto channel = listener.accept()) return channel;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return nullptr;
}

TEST(TcpIntegration, EndToEndBudgetAndFeedbackOverSocket) {
  TcpListener listener;
  auto client = tcp_connect(listener.port());
  auto server = accept_one(listener);
  ASSERT_NE(server, nullptr);

  // Head node: manager with a static target.
  ClusterManagerConfig manager_config;
  manager_config.cluster_nodes = 4;
  manager_config.control_period_s = 0.5;
  manager_config.closed_loop = false;
  ClusterManager manager(manager_config);
  util::TimeSeries targets;
  targets.add(0.0, 2 * 200.0 + 2 * manager_config.idle_node_power_w);
  manager.set_power_targets(std::move(targets));
  manager.attach_channel(std::move(server));

  // Compute node: a real endpoint process, misclassified as IS.
  util::VirtualClock clock;
  geopm::Endpoint geopm_endpoint;
  JobEndpointConfig endpoint_config;
  endpoint_config.period_s = 0.5;
  endpoint_config.feedback_enabled = true;
  JobEndpointProcess endpoint(7, "bt.D.x#7", "is.D.x", 2,
                              model::model_for_class("is.D.x"), geopm_endpoint, *client,
                              0.0, endpoint_config);

  const auto& bt = workload::find_job_type("bt.D.x");
  // Drive both sides: synthetic BT epochs flow into the GEOPM endpoint,
  // budgets flow back over the socket.  TCP delivery is asynchronous, so
  // poll both loops.
  double epoch_t = 0.0;
  long epochs = 0;
  double last_cap = workload::kNodeMaxCapW;
  bool saw_initial_budget = false;
  for (int iteration = 0; iteration < 600 && !endpoint.published_feedback(); ++iteration) {
    clock.advance(0.5);
    manager.step(clock.now());

    // Feed epochs at the currently applied cap's true BT rate.
    while (epoch_t + bt.epoch_time_s(last_cap) <= clock.now()) {
      epoch_t += bt.epoch_time_s(last_cap);
      ++epochs;
      geopm::Sample sample{};
      sample[geopm::kSampleEpochCount] = static_cast<double>(epochs);
      sample[geopm::kSampleTimestamp] = epoch_t;
      sample[geopm::kSampleEpochTime] = epoch_t;
      geopm_endpoint.write_sample(epoch_t, sample);
    }
    endpoint.step(clock.now());
    if (auto policy = geopm_endpoint.read_policy()) {
      last_cap = policy->policy[geopm::kPolicyPowerCap];
      saw_initial_budget = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_TRUE(saw_initial_budget);
  EXPECT_TRUE(endpoint.published_feedback());
  // The manager's model for job 7 was corrected over the socket.
  for (int i = 0; i < 200 && !manager.jobs().empty() &&
                  !manager.jobs().begin()->second.model_from_feedback;
       ++i) {
    clock.advance(0.5);
    manager.step(clock.now());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(manager.active_jobs(), 1u);
  EXPECT_TRUE(manager.jobs().begin()->second.model_from_feedback);
  // ... and it predicts BT-like epoch times.
  EXPECT_NEAR(manager.jobs().begin()->second.model.time_at(278.0), 0.9, 0.05);

  endpoint.finish(clock.now());
  for (int i = 0; i < 200 && manager.active_jobs() != 0; ++i) {
    clock.advance(0.5);
    manager.step(clock.now());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(manager.active_jobs(), 0u);
}

}  // namespace
}  // namespace anor::cluster
