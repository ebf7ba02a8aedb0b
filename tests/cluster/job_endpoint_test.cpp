#include "cluster/job_endpoint.hpp"

#include <gtest/gtest.h>

#include "cluster/transport.hpp"
#include "geopm/signals.hpp"
#include "model/default_models.hpp"
#include "util/clock.hpp"

namespace anor::cluster {
namespace {

struct JobEndpointTest : ::testing::Test {
  JobEndpointTest() : pair(make_inproc_pair(clock, 0.0)) {}

  JobEndpointProcess make_endpoint(const std::string& classified,
                                   bool feedback = true) {
    JobEndpointConfig config;
    config.period_s = 1.0;
    config.feedback_enabled = feedback;
    // These tests drive the endpoint alone; there is no manager behind
    // pair.a, so disable quiet-manager degradation (it would otherwise
    // decay the cap mid-test and pause probing).
    config.manager_quiet_after_s = 0.0;
    return JobEndpointProcess(1, "bt.D.x#1", classified, 2,
                              model::model_for_class(classified), geopm_endpoint,
                              *pair.b, clock.now(), config);
  }

  std::optional<Message> manager_receive() { return pair.a->receive(); }

  /// Push an agent sample with the given epoch count at time t.
  void push_sample(double t, long epochs) {
    geopm::Sample sample{};
    sample[geopm::kSampleEpochCount] = static_cast<double>(epochs);
    sample[geopm::kSampleTimestamp] = t;
    geopm_endpoint.write_sample(t, sample);
  }

  util::VirtualClock clock;
  geopm::Endpoint geopm_endpoint;
  InprocPair pair;
};

TEST_F(JobEndpointTest, SendsHelloOnConstruction) {
  auto endpoint = make_endpoint("is.D.x");
  const auto msg = manager_receive();
  ASSERT_TRUE(msg.has_value());
  const auto* hello = std::get_if<JobHelloMsg>(&*msg);
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->classified_as, "is.D.x");
  EXPECT_EQ(hello->nodes, 2);
}

TEST_F(JobEndpointTest, ForwardsBudgetToGeopmEndpoint) {
  auto endpoint = make_endpoint("bt.D.x");
  (void)manager_receive();
  pair.a->send(PowerBudgetMsg{1, 190.0, 0.0});
  clock.advance(1.0);
  endpoint.step(clock.now());
  const auto policy = geopm_endpoint.read_policy();
  ASSERT_TRUE(policy.has_value());
  EXPECT_DOUBLE_EQ(policy->policy[geopm::kPolicyPowerCap], 190.0);
  EXPECT_DOUBLE_EQ(endpoint.current_cap_w(), 190.0);
}

TEST_F(JobEndpointTest, StepHonorsPeriod) {
  auto endpoint = make_endpoint("bt.D.x");
  (void)manager_receive();
  clock.advance(1.0);
  endpoint.step(clock.now());
  pair.a->send(PowerBudgetMsg{1, 150.0, 0.0});
  endpoint.step(clock.now());  // same instant: skipped
  EXPECT_FALSE(geopm_endpoint.read_policy().has_value());
}

TEST_F(JobEndpointTest, MisclassifiedJobReclassifiedThroughFeedback) {
  // Endpoint believes the job is IS, but the observed epochs follow BT's
  // curve.  Observations arrive at two caps (the uncapped start plus a
  // budget), which identifies the curve's slope; with feedback on, the
  // endpoint must publish the corrected BT model.  (At a single cap
  // several type curves coincide and the endpoint rightly stays
  // ambiguous and probes instead.)
  auto endpoint = make_endpoint("is.D.x", /*feedback=*/true);
  (void)manager_receive();

  const auto& bt = workload::find_job_type("bt.D.x");
  double t = 0.0;
  long epochs = 0;
  push_sample(t, epochs);
  clock.advance(1.0);
  endpoint.step(clock.now());
  for (int i = 0; i < 14; ++i) {
    t += bt.epoch_time_s(280.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  // The cluster tier lowers the budget; epochs slow down along BT's curve.
  pair.a->send(PowerBudgetMsg{1, 200.0, clock.now()});
  clock.advance(1.0);
  endpoint.step(clock.now());
  t = std::max(t, clock.now());
  for (int i = 0; i < 20 && !endpoint.published_feedback(); ++i) {
    t += bt.epoch_time_s(200.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  ASSERT_TRUE(endpoint.published_feedback());
  std::optional<ModelUpdateMsg> update;
  while (auto msg = manager_receive()) {
    if (const auto* m = std::get_if<ModelUpdateMsg>(&*msg)) update = *m;
  }
  ASSERT_TRUE(update.has_value());
  EXPECT_TRUE(update->from_feedback);
  // The corrected model predicts BT-like epoch times, not IS-like.
  model::PowerPerfModel corrected(update->a, update->b, update->c, update->p_min_w,
                                  update->p_max_w);
  EXPECT_NEAR(corrected.time_at(280.0), bt.epoch_time_s(280.0), 0.1);
}

TEST_F(JobEndpointTest, NoFeedbackMeansNoModelUpdates) {
  auto endpoint = make_endpoint("is.D.x", /*feedback=*/false);
  (void)manager_receive();
  const auto& bt = workload::find_job_type("bt.D.x");
  double t = 0.0;
  long epochs = 0;
  push_sample(t, epochs);
  clock.advance(1.0);
  endpoint.step(clock.now());
  for (int i = 0; i < 20; ++i) {
    t += bt.epoch_time_s(280.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  EXPECT_FALSE(endpoint.published_feedback());
  while (auto msg = manager_receive()) {
    EXPECT_EQ(std::get_if<ModelUpdateMsg>(&*msg), nullptr);
  }
}

TEST_F(JobEndpointTest, CorrectClassificationStaysQuiet) {
  auto endpoint = make_endpoint("bt.D.x", /*feedback=*/true);
  (void)manager_receive();
  const auto& bt = workload::find_job_type("bt.D.x");
  double t = 0.0;
  long epochs = 0;
  push_sample(t, epochs);
  clock.advance(1.0);
  endpoint.step(clock.now());
  for (int i = 0; i < 20; ++i) {
    t += bt.epoch_time_s(280.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  EXPECT_FALSE(endpoint.published_feedback());
}

TEST_F(JobEndpointTest, AmbiguousCandidatesTriggerProbing) {
  // The served model (IS) is clearly wrong, but all observations sit at a
  // single cap where BT and FT predict identical epoch times — the
  // endpoint must start probing rather than committing a coin-flip.
  auto endpoint = make_endpoint("is.D.x", /*feedback=*/true);
  (void)manager_receive();
  const auto& bt = workload::find_job_type("bt.D.x");
  double t = 0.0;
  long epochs = 0;
  push_sample(t, epochs);
  clock.advance(1.0);
  endpoint.step(clock.now());
  for (int i = 0; i < 16; ++i) {
    t += bt.epoch_time_s(280.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  EXPECT_FALSE(endpoint.published_feedback());
  EXPECT_TRUE(endpoint.probing());
}

TEST_F(JobEndpointTest, ProbingDisabledCommitsNothingWhenAmbiguous) {
  JobEndpointConfig config;
  config.period_s = 1.0;
  config.feedback_enabled = true;
  config.probe_enabled = false;
  JobEndpointProcess endpoint(1, "bt.D.x#1", "is.D.x", 2,
                              model::model_for_class("is.D.x"), geopm_endpoint, *pair.b,
                              clock.now(), config);
  (void)manager_receive();
  const auto& bt = workload::find_job_type("bt.D.x");
  double t = 0.0;
  long epochs = 0;
  push_sample(t, epochs);
  clock.advance(1.0);
  endpoint.step(clock.now());
  for (int i = 0; i < 16; ++i) {
    t += bt.epoch_time_s(280.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  EXPECT_FALSE(endpoint.published_feedback());
  EXPECT_FALSE(endpoint.probing());
}

TEST_F(JobEndpointTest, FinishSendsGoodbye) {
  auto endpoint = make_endpoint("bt.D.x");
  (void)manager_receive();
  endpoint.finish(5.0);
  const auto msg = manager_receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(std::get_if<JobGoodbyeMsg>(&*msg), nullptr);
}

TEST_F(JobEndpointTest, CapChangesRecordedInModeler) {
  auto endpoint = make_endpoint("bt.D.x");
  (void)manager_receive();
  pair.a->send(PowerBudgetMsg{1, 200.0, 0.0});
  clock.advance(1.0);
  endpoint.step(clock.now());

  // Observations around the new cap attribute to ~200 W.  Feed enough
  // epochs that the modeler cuts several >= min_span_s observations (the
  // leading, setup-polluted one is skipped by design).
  const auto& bt = workload::find_job_type("bt.D.x");
  double t = clock.now();
  long epochs = 0;
  push_sample(t, epochs);
  clock.advance(1.0);
  endpoint.step(clock.now());
  for (int i = 0; i < 25; ++i) {
    t += bt.epoch_time_s(200.0);
    ++epochs;
    push_sample(t, epochs);
    clock.advance(1.0);
    endpoint.step(clock.now());
  }
  ASSERT_GT(endpoint.modeler().observation_count(), 0u);
  EXPECT_NEAR(endpoint.modeler().observations().back().avg_cap_w, 200.0, 25.0);
}

}  // namespace
}  // namespace anor::cluster
