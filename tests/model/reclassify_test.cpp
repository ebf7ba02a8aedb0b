#include "model/reclassify.hpp"

#include <gtest/gtest.h>

#include "model/default_models.hpp"

namespace anor::model {
namespace {

/// Observations of a job following `type`'s true curve at a single cap.
std::vector<EpochObservation> observe(const workload::JobType& type, double cap_w,
                                      long epochs) {
  std::vector<EpochObservation> observations;
  double t = 0.0;
  for (long i = 0; i < epochs; ++i) {
    EpochObservation obs;
    obs.avg_cap_w = cap_w;
    obs.sec_per_epoch = type.epoch_time_s(cap_w);
    obs.t_start_s = t;
    obs.t_end_s = t + obs.sec_per_epoch;
    obs.epochs = 1;
    observations.push_back(obs);
    t = obs.t_end_s;
  }
  return observations;
}

TEST(Reclassifier, StandardCandidatesCoverAllTypes) {
  EXPECT_EQ(standard_candidates().size(), workload::nas_job_types().size());
}

TEST(Reclassifier, MeanRelativeErrorZeroForTruth) {
  const auto& bt = workload::find_job_type("bt.D.x");
  const PowerPerfModel truth = PowerPerfModel::from_job_type(bt);
  const auto observations = observe(bt, 180.0, 12);
  std::vector<CapAggregate> pool;
  aggregate_by_cap(observations, pool);
  EXPECT_NEAR(Reclassifier::mean_relative_error(truth, pool), 0.0, 1e-6);
}

TEST(Reclassifier, DetectsBtMisclassifiedAsIs) {
  // The Fig. 6/7 scenario: BT (0.9 s epochs) classified as IS (0.18 s
  // epochs).  Observed epochs are ~5x the IS prediction -> reclassify.
  const Reclassifier reclassifier(standard_candidates());
  const PowerPerfModel is_model = model_for_class("is.D.x");
  const auto observations = observe(workload::find_job_type("bt.D.x"), 180.0, 12);
  const auto suggestion = reclassifier.suggest(observations, is_model);
  ASSERT_TRUE(suggestion.has_value());
  EXPECT_EQ(suggestion->name, "bt.D.x");
}

TEST(Reclassifier, DetectsSpMisclassifiedAsEp) {
  // The Fig. 8 scenario: SP classified as EP.
  const Reclassifier reclassifier(standard_candidates());
  const PowerPerfModel ep_model = model_for_class("ep.D.x");
  const auto observations = observe(workload::find_job_type("sp.D.x"), 200.0, 15);
  const auto suggestion = reclassifier.suggest(observations, ep_model);
  ASSERT_TRUE(suggestion.has_value());
  EXPECT_EQ(suggestion->name, "sp.D.x");
}

TEST(Reclassifier, CorrectClassificationLeftAlone) {
  const Reclassifier reclassifier(standard_candidates());
  const PowerPerfModel bt_model = model_for_class("bt.D.x");
  const auto observations = observe(workload::find_job_type("bt.D.x"), 180.0, 20);
  EXPECT_FALSE(reclassifier.suggest(observations, bt_model).has_value());
}

TEST(Reclassifier, NeedsEnoughEpochs) {
  ReclassifierConfig config;
  config.min_epochs = 10;
  const Reclassifier reclassifier(standard_candidates(), config);
  const PowerPerfModel is_model = model_for_class("is.D.x");
  const auto observations = observe(workload::find_job_type("bt.D.x"), 180.0, 5);
  EXPECT_FALSE(reclassifier.suggest(observations, is_model).has_value());
}

TEST(Reclassifier, EmptyObservationsNoSuggestion) {
  const Reclassifier reclassifier(standard_candidates());
  EXPECT_FALSE(reclassifier.suggest({}, model_for_class("is.D.x")).has_value());
}

TEST(Reclassifier, RequiresSubstantialImprovement) {
  // Candidates that are all equally bad must not trigger a swap: give the
  // reclassifier a single candidate identical to the current model.
  ReclassifierConfig config;
  config.improvement_factor = 0.5;
  const PowerPerfModel is_model = model_for_class("is.D.x");
  const Reclassifier reclassifier({NamedModel{"is.D.x", is_model}}, config);
  const auto observations = observe(workload::find_job_type("bt.D.x"), 180.0, 20);
  EXPECT_FALSE(reclassifier.suggest(observations, is_model).has_value());
}

TEST(Reclassifier, NoCandidatesNoSuggestion) {
  const Reclassifier reclassifier({});
  const auto observations = observe(workload::find_job_type("bt.D.x"), 180.0, 20);
  EXPECT_FALSE(
      reclassifier.suggest(observations, model_for_class("is.D.x")).has_value());
}

}  // namespace
}  // namespace anor::model
