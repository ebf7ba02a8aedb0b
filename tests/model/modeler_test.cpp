#include "model/modeler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "model/default_models.hpp"

namespace anor::model {
namespace {

/// Observations safe to fit against: the single-cap spans.
long clean_count(const OnlineModeler& modeler) {
  return std::count_if(modeler.observations().begin(), modeler.observations().end(),
                       [](const EpochObservation& obs) { return !obs.mixed_cap; });
}

PowerPerfModel is_default() { return default_model(DefaultModelPolicy::kLeastSensitive); }

const workload::JobType& bt() { return workload::find_job_type("bt.D.x"); }

ModelerConfig fast_config() {
  ModelerConfig config;
  config.retrain_epochs = 10;
  config.min_span_s = 0.1;
  config.skip_observations = 0;  // tests feed exact timestamps, no setup
  return config;
}

TEST(OnlineModeler, FirstSampleOnlyInitializes) {
  OnlineModeler modeler(is_default(), fast_config());
  EXPECT_FALSE(modeler.add_epoch_sample(0.0, 0).has_value());
  EXPECT_EQ(modeler.observation_count(), 0u);
}

TEST(OnlineModeler, ObservationFromEpochDelta) {
  OnlineModeler modeler(is_default(), fast_config());
  modeler.record_cap(0.0, 200.0);
  modeler.add_epoch_sample(0.0, 0);
  const auto obs = modeler.add_epoch_sample(4.0, 4);
  ASSERT_TRUE(obs.has_value());
  EXPECT_DOUBLE_EQ(obs->sec_per_epoch, 1.0);
  EXPECT_EQ(obs->epochs, 4);
  EXPECT_DOUBLE_EQ(obs->avg_cap_w, 200.0);
}

TEST(OnlineModeler, StaleOrDuplicateEpochIgnored) {
  OnlineModeler modeler(is_default(), fast_config());
  modeler.add_epoch_sample(0.0, 5);
  EXPECT_FALSE(modeler.add_epoch_sample(1.0, 5).has_value());
  EXPECT_FALSE(modeler.add_epoch_sample(2.0, 3).has_value());
}

TEST(OnlineModeler, TooShortSpanDeferred) {
  ModelerConfig config = fast_config();
  config.min_span_s = 1.0;
  OnlineModeler modeler(is_default(), config);
  modeler.add_epoch_sample(0.0, 0);
  EXPECT_FALSE(modeler.add_epoch_sample(0.5, 1).has_value());
  // The deferred epochs are picked up by the next long-enough span.
  const auto obs = modeler.add_epoch_sample(2.0, 4);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->epochs, 4);
}

TEST(OnlineModeler, AverageCapOverSpanIsTimeWeighted) {
  OnlineModeler modeler(is_default(), fast_config());
  modeler.record_cap(0.0, 280.0);
  modeler.add_epoch_sample(0.0, 0);
  modeler.record_cap(6.0, 140.0);
  // Span [0, 10]: 6 s at 280 W + 4 s at 140 W = 224 W average.
  const auto obs = modeler.add_epoch_sample(10.0, 8);
  ASSERT_TRUE(obs.has_value());
  EXPECT_NEAR(obs->avg_cap_w, 224.0, 1e-9);
}

TEST(OnlineModeler, RetrainsAfterTenEpochsAcrossCaps) {
  // Feed the ground-truth BT curve at three caps; after >= 10 epochs the
  // modeler replaces the IS-like default with a fit near the truth.
  OnlineModeler modeler(is_default(), fast_config());
  double t = 0.0;
  long epochs = 0;
  modeler.add_epoch_sample(t, epochs);
  for (double cap : {280.0, 200.0, 140.0, 240.0}) {
    modeler.record_cap(t, cap);
    for (int i = 0; i < 4; ++i) {
      t += bt().epoch_time_s(cap);
      ++epochs;
      modeler.add_epoch_sample(t, epochs);
    }
  }
  EXPECT_TRUE(modeler.has_fitted_model());
  EXPECT_NEAR(modeler.model().time_at(200.0), bt().epoch_time_s(200.0), 0.05);
  EXPECT_NEAR(modeler.model().slowdown_at(140.0), bt().max_slowdown(), 0.08);
}

TEST(OnlineModeler, SingleCapCannotRetrain) {
  OnlineModeler modeler(is_default(), fast_config());
  modeler.record_cap(0.0, 200.0);
  double t = 0.0;
  long epochs = 0;
  modeler.add_epoch_sample(t, epochs);
  for (int i = 0; i < 40; ++i) {
    t += 1.0;
    ++epochs;
    modeler.add_epoch_sample(t, epochs);
  }
  EXPECT_FALSE(modeler.has_fitted_model());
  EXPECT_GE(modeler.observation_count(), 30u);
}

TEST(OnlineModeler, KeepsDefaultUntilRetrain) {
  const PowerPerfModel initial = is_default();
  OnlineModeler modeler(initial, fast_config());
  EXPECT_DOUBLE_EQ(modeler.model().time_at(200.0), initial.time_at(200.0));
}

TEST(OnlineModeler, SkipObservationsDiscardsSetupPollutedSpan) {
  ModelerConfig config = fast_config();
  config.skip_observations = 1;
  OnlineModeler modeler(is_default(), config);
  modeler.record_cap(0.0, 200.0);
  modeler.add_epoch_sample(0.0, 0);
  // First span (setup-polluted in real runs) is discarded...
  EXPECT_FALSE(modeler.add_epoch_sample(5.0, 2).has_value());
  EXPECT_EQ(modeler.observation_count(), 0u);
  // ...but subsequent ones are kept.
  EXPECT_TRUE(modeler.add_epoch_sample(10.0, 4).has_value());
  EXPECT_EQ(modeler.observation_count(), 1u);
}

TEST(OnlineModeler, MixedCapSpansMarkedAndExcludedFromFit) {
  ModelerConfig config = fast_config();
  OnlineModeler modeler(is_default(), config);
  modeler.record_cap(0.0, 280.0);
  modeler.add_epoch_sample(0.0, 0);
  modeler.record_cap(2.0, 200.0);  // cap changes inside the next span
  const auto obs = modeler.add_epoch_sample(4.0, 4);
  ASSERT_TRUE(obs.has_value());
  EXPECT_TRUE(obs->mixed_cap);
  EXPECT_EQ(clean_count(modeler), 0);
  // A span entirely at one cap is clean.
  const auto obs2 = modeler.add_epoch_sample(8.0, 8);
  ASSERT_TRUE(obs2.has_value());
  EXPECT_FALSE(obs2->mixed_cap);
  EXPECT_EQ(clean_count(modeler), 1);
}

TEST(OnlineModeler, LowR2RefitRejected) {
  // Observations at three caps but with values bearing no relation to a
  // quadratic in power: the refit must not replace the served model.
  ModelerConfig config = fast_config();
  config.min_r2 = 0.7;
  OnlineModeler modeler(is_default(), config);
  modeler.add_epoch_sample(0.0, 0);
  double t = 0.0;
  long epochs = 0;
  // Wildly different epoch times at the *same* caps: no quadratic in P
  // can explain these, so any fit has high residual variance.
  const double caps[] = {280.0, 200.0, 150.0, 280.0, 200.0, 150.0,
                         280.0, 200.0, 150.0, 280.0, 200.0, 150.0};
  const double times[] = {1.0, 0.2, 2.5, 0.1, 3.0, 0.4, 2.8, 0.15, 0.3, 0.9, 1.7, 2.2};
  for (int i = 0; i < 12; ++i) {
    modeler.record_cap(t, caps[i]);
    t += times[i] * 3.0;
    epochs += 3;
    modeler.add_epoch_sample(t, epochs);
  }
  EXPECT_FALSE(modeler.has_fitted_model());
}

TEST(OnlineModeler, ObservationWindowBounded) {
  ModelerConfig config = fast_config();
  config.max_observations = 8;
  OnlineModeler modeler(is_default(), config);
  modeler.record_cap(0.0, 200.0);
  modeler.add_epoch_sample(0.0, 0);
  for (int i = 1; i <= 50; ++i) {
    modeler.add_epoch_sample(i * 1.0, i);
  }
  EXPECT_LE(modeler.observation_count(), 8u);
}

TEST(OnlineModeler, PhaseChangeResetsObservationWindow) {
  // The job runs IS-like (0.18 s epochs) then BT-like (0.9 s epochs) at a
  // constant cap: the modeler must notice the shift, discard the stale
  // phase's observations, and drop any refit.
  ModelerConfig config = fast_config();
  config.phase_shift_threshold = 0.25;
  config.phase_window = 3;
  OnlineModeler modeler(is_default(), config);
  modeler.record_cap(0.0, 200.0);
  double t = 0.0;
  long epochs = 0;
  modeler.add_epoch_sample(t, epochs);
  for (int i = 0; i < 12; ++i) {
    t += 0.18 * 4;  // 4 epochs per observation
    epochs += 4;
    modeler.add_epoch_sample(t, epochs);
  }
  const std::size_t before = modeler.observation_count();
  ASSERT_GE(before, 10u);
  EXPECT_EQ(modeler.phase_changes_detected(), 0);

  for (int i = 0; i < 6; ++i) {
    t += 0.9 * 4;  // the BT phase
    epochs += 4;
    modeler.add_epoch_sample(t, epochs);
  }
  EXPECT_GE(modeler.phase_changes_detected(), 1);
  // Old-phase (0.18 s) observations were purged: the pool now reflects the
  // BT phase (a boundary-straddling span can drag it slightly below 0.9).
  std::vector<CapAggregate> aggregates;
  aggregate_by_cap(modeler.observations(), aggregates, 5.0, true);
  ASSERT_FALSE(aggregates.empty());
  EXPECT_GT(aggregates.front().sec_per_epoch, 0.6);
  EXPECT_LT(aggregates.front().sec_per_epoch, 1.0);
}

TEST(OnlineModeler, NoPhaseChangeOnStableBehavior) {
  ModelerConfig config = fast_config();
  config.phase_shift_threshold = 0.25;
  OnlineModeler modeler(is_default(), config);
  modeler.record_cap(0.0, 200.0);
  double t = 0.0;
  long epochs = 0;
  modeler.add_epoch_sample(t, epochs);
  for (int i = 0; i < 30; ++i) {
    t += 1.0 * 4;
    epochs += 4;
    modeler.add_epoch_sample(t, epochs);
  }
  EXPECT_EQ(modeler.phase_changes_detected(), 0);
}

TEST(OnlineModeler, LateCapRecordClampedForward) {
  OnlineModeler modeler(is_default(), fast_config());
  modeler.record_cap(5.0, 200.0);
  EXPECT_NO_THROW(modeler.record_cap(3.0, 180.0));  // clamped to t=5
}

TEST(OnlineModeler, ManualRetrainReportsFailure) {
  OnlineModeler modeler(is_default(), fast_config());
  EXPECT_FALSE(modeler.retrain());  // no observations at all
}

}  // namespace
}  // namespace anor::model
