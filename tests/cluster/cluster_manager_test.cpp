#include "cluster/cluster_manager.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "cluster/transport.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workload/regulation.hpp"

namespace anor::cluster {
namespace {

struct ClusterManagerTest : ::testing::Test {
  ClusterManagerTest() {
    config.control_period_s = 1.0;
    config.cluster_nodes = 16;
    config.idle_node_power_w = 45.0;
  }

  ClusterManagerConfig config;
  util::VirtualClock clock;

  /// Register a job over a fresh channel pair; returns the job-side end.
  std::unique_ptr<MessageChannel> register_job(ClusterManager& manager, int job_id,
                                               const char* classified, int nodes) {
    pairs.push_back(make_inproc_pair(clock, 0.0));
    auto& pair = pairs.back();
    manager.attach_channel(std::move(pair.a));
    JobHelloMsg hello;
    hello.job_id = job_id;
    hello.job_name = std::string(classified) + "#" + std::to_string(job_id);
    hello.classified_as = classified;
    hello.nodes = nodes;
    pair.b->send(hello);
    return std::move(pair.b);
  }

  std::vector<InprocPair> pairs;
};

util::TimeSeries flat_targets(double watts) {
  util::TimeSeries targets;
  targets.add(0.0, watts);
  return targets;
}

TEST_F(ClusterManagerTest, RegistersJobOnHello) {
  ClusterManager manager(config);
  auto job = register_job(manager, 1, "bt.D.x", 2);
  manager.step(0.0);
  EXPECT_EQ(manager.active_jobs(), 1u);
  EXPECT_EQ(manager.jobs().at(1).classified_as, "bt.D.x");
}

TEST_F(ClusterManagerTest, GoodbyeRemovesJob) {
  ClusterManager manager(config);
  auto job = register_job(manager, 1, "bt.D.x", 2);
  manager.step(0.0);
  job->send(JobGoodbyeMsg{1, 1.0});
  clock.advance(1.0);
  manager.step(clock.now());
  EXPECT_EQ(manager.active_jobs(), 0u);
}

TEST_F(ClusterManagerTest, SendsBudgetsWhenTargetsSet) {
  ClusterManager manager(config);
  manager.set_power_targets(flat_targets(16 * 45.0 + 2 * 190.0 + 14 * 45.0));
  auto job = register_job(manager, 1, "bt.D.x", 2);
  manager.step(0.0);
  clock.advance(1.0);
  manager.step(clock.now());
  std::optional<PowerBudgetMsg> budget;
  while (auto msg = job->receive()) {
    if (const auto* b = std::get_if<PowerBudgetMsg>(&*msg)) budget = *b;
  }
  ASSERT_TRUE(budget.has_value());
  EXPECT_GE(budget->node_cap_w, 140.0);
  EXPECT_LE(budget->node_cap_w, 280.0);
}

TEST_F(ClusterManagerTest, NoTargetMeansUncappedBudget) {
  ClusterManager manager(config);
  auto job = register_job(manager, 1, "bt.D.x", 2);
  manager.step(0.0);
  clock.advance(1.0);
  manager.step(clock.now());
  std::optional<PowerBudgetMsg> budget;
  while (auto msg = job->receive()) {
    if (const auto* b = std::get_if<PowerBudgetMsg>(&*msg)) budget = *b;
  }
  ASSERT_TRUE(budget.has_value());
  EXPECT_NEAR(budget->node_cap_w, model::model_for_class("bt.D.x").p_max_w(), 1.0);
}

TEST_F(ClusterManagerTest, JobBudgetSubtractsIdleNodes) {
  ClusterManager manager(config);
  auto job = register_job(manager, 1, "bt.D.x", 2);
  manager.step(0.0);
  // 14 idle nodes at 45 W reserved off the top.
  EXPECT_NEAR(manager.job_budget_at(3000.0), 3000.0 - 14 * 45.0, 1e-9);
}

TEST_F(ClusterManagerTest, ModelUpdateChangesBudgetDecision) {
  // Two jobs: BT classified as IS (wrong) plus a real IS.  Under a tight
  // budget the manager splits power evenly-ish.  After the BT job's
  // feedback reveals its true sensitivity, BT must receive a higher cap.
  ClusterManager manager(config);
  manager.set_power_targets(flat_targets(13 * 45.0 + 3 * 180.0));
  auto bt_job = register_job(manager, 1, "is.D.x", 2);   // actually BT
  auto is_job = register_job(manager, 2, "is.D.x", 1);
  manager.step(0.0);
  clock.advance(1.0);
  manager.step(clock.now());
  std::optional<PowerBudgetMsg> before;
  while (auto msg = bt_job->receive()) {
    if (const auto* b = std::get_if<PowerBudgetMsg>(&*msg)) before = *b;
  }
  ASSERT_TRUE(before.has_value());

  // Feedback: the true BT model.
  const auto bt_model = model::model_for_class("bt.D.x");
  ModelUpdateMsg update;
  update.job_id = 1;
  update.a = bt_model.a();
  update.b = bt_model.b();
  update.c = bt_model.c();
  update.p_min_w = bt_model.p_min_w();
  update.p_max_w = bt_model.p_max_w();
  update.from_feedback = true;
  bt_job->send(update);
  clock.advance(1.0);
  manager.step(clock.now());
  std::optional<PowerBudgetMsg> after;
  while (auto msg = bt_job->receive()) {
    if (const auto* b = std::get_if<PowerBudgetMsg>(&*msg)) after = *b;
  }
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->node_cap_w, before->node_cap_w + 5.0);
  EXPECT_TRUE(manager.jobs().at(1).model_from_feedback);
}

TEST_F(ClusterManagerTest, RejectsModelUpdatesWhenDisabled) {
  config.accept_model_updates = false;
  ClusterManager manager(config);
  auto job = register_job(manager, 1, "is.D.x", 2);
  manager.step(0.0);
  ModelUpdateMsg update;
  update.job_id = 1;
  update.a = 0.0;
  update.b = 0.0;
  update.c = 9.0;
  update.p_min_w = 140.0;
  update.p_max_w = 280.0;
  job->send(update);
  clock.advance(1.0);
  manager.step(clock.now());
  EXPECT_FALSE(manager.jobs().at(1).model_from_feedback);
  EXPECT_NE(manager.jobs().at(1).model.c(), 9.0);
}

TEST_F(ClusterManagerTest, UnknownClassificationUsesDefaultModel) {
  config.default_model = model::DefaultModelPolicy::kMostSensitive;
  ClusterManager manager(config);
  auto job = register_job(manager, 1, "mystery.job", 2);
  manager.step(0.0);
  const auto& model = manager.jobs().at(1).model;
  // Most-sensitive default is EP-like: max slowdown near 0.8.
  EXPECT_NEAR(model.max_slowdown(), 0.80, 0.05);
}

TEST_F(ClusterManagerTest, SuppressesNoOpCapResends) {
  ClusterManager manager(config);
  manager.set_power_targets(flat_targets(4000.0));
  auto job = register_job(manager, 1, "bt.D.x", 2);
  manager.step(0.0);
  clock.advance(1.0);
  manager.step(clock.now());
  // Count only budget messages: the manager also heartbeats endpoints.
  int first_round = 0;
  while (auto msg = job->receive()) {
    if (std::get_if<PowerBudgetMsg>(&*msg)) ++first_round;
  }
  EXPECT_GE(first_round, 1);
  clock.advance(1.0);
  manager.step(clock.now());
  int second_round = 0;
  while (auto msg = job->receive()) {
    if (std::get_if<PowerBudgetMsg>(&*msg)) ++second_round;
  }
  EXPECT_EQ(second_round, 0);  // same cap: no resend
}

TEST_F(ClusterManagerTest, PowerTargetsFileRoundTrip) {
  util::TimeSeries targets;
  targets.add(0.0, 2500.0);
  targets.add(4.0, 2600.0);
  const std::string path = testing::TempDir() + "/anor_targets_test.json";
  util::save_json_file(path, workload::power_targets_to_json(targets));
  ClusterManager manager(config);
  manager.set_power_targets(workload::power_targets_from_json(util::load_json_file(path)));
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(manager.target_at(0.0).value(), 2500.0);
  EXPECT_DOUBLE_EQ(manager.target_at(5.0).value(), 2600.0);
}

TEST_F(ClusterManagerTest, TargetAtWithoutTargetsIsNullopt) {
  ClusterManager manager(config);
  EXPECT_FALSE(manager.target_at(0.0).has_value());
}

}  // namespace
}  // namespace anor::cluster
