// Tests for cap-pooled observation aggregation and model prediction
// distance — the machinery that makes feedback decisions robust to
// sampling quantization.
#include <gtest/gtest.h>

#include "model/default_models.hpp"
#include "model/modeler.hpp"
#include "model/reclassify.hpp"

namespace anor::model {
namespace {

EpochObservation obs(double cap, double spe, long epochs, double t0 = 0.0) {
  EpochObservation o;
  o.avg_cap_w = cap;
  o.sec_per_epoch = spe;
  o.epochs = epochs;
  o.t_start_s = t0;
  o.t_end_s = t0 + spe * epochs;
  return o;
}

std::vector<CapAggregate> pooled(const std::vector<EpochObservation>& observations,
                                 double bucket_w = 5.0, bool clean_only = false) {
  std::vector<CapAggregate> pool;
  aggregate_by_cap(observations, pool, bucket_w, clean_only);
  return pool;
}

TEST(AggregateByCap, PoolsSameBucket) {
  // Quantized spans: "2 or 3 epochs per 4 s" pools back to the true rate.
  std::vector<EpochObservation> observations = {
      obs(150.0, 4.0 / 3.0, 3), obs(150.0, 2.0, 2), obs(150.0, 4.0 / 3.0, 3)};
  const auto aggregates = pooled(observations);
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_EQ(aggregates[0].epochs, 8);
  EXPECT_NEAR(aggregates[0].sec_per_epoch, 12.0 / 8.0, 1e-12);
  EXPECT_NEAR(aggregates[0].cap_w, 150.0, 1e-12);
}

TEST(AggregateByCap, SeparatesDistantCaps) {
  std::vector<EpochObservation> observations = {obs(150.0, 1.5, 4), obs(200.0, 1.2, 4),
                                                obs(152.0, 1.5, 4)};
  const auto aggregates = pooled(observations, 5.0);
  EXPECT_EQ(aggregates.size(), 2u);
}

TEST(AggregateByCap, WeightsCapByEpochs) {
  std::vector<EpochObservation> observations = {obs(148.0, 1.0, 1), obs(152.0, 1.0, 3)};
  const auto aggregates = pooled(observations, 5.0);
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_NEAR(aggregates[0].cap_w, (148.0 + 3 * 152.0) / 4.0, 1e-12);
}

TEST(AggregateByCap, SkipsZeroEpochObservations) {
  std::vector<EpochObservation> observations = {obs(150.0, 1.0, 0), obs(150.0, 1.0, 2)};
  const auto aggregates = pooled(observations);
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_EQ(aggregates[0].epochs, 2);
}

TEST(AggregateByCap, EmptyInEmptyOut) {
  EXPECT_TRUE(pooled({}).empty());
}

TEST(PredictionDistance, SameModelIsZero) {
  const PowerPerfModel bt = model_for_class("bt.D.x");
  const std::vector<EpochObservation> observations = {obs(200.0, 1.2, 5),
                                                      obs(160.0, 1.4, 5)};
  EXPECT_NEAR(model_prediction_distance(bt, bt, observations), 0.0, 1e-12);
}

TEST(PredictionDistance, RefitOfSameTypeIsNear) {
  const PowerPerfModel bt = model_for_class("bt.D.x");
  // A refit from the true curve is numerically near-identical.
  const PowerPerfModel refit = PowerPerfModel::from_job_type(workload::find_job_type("bt.D.x"));
  const std::vector<EpochObservation> observations = {obs(200.0, 1.2, 5),
                                                      obs(160.0, 1.4, 5)};
  EXPECT_LT(model_prediction_distance(bt, refit, observations), 0.001);
}

TEST(PredictionDistance, DifferentTypesAreFar) {
  const PowerPerfModel bt = model_for_class("bt.D.x");
  const PowerPerfModel is = model_for_class("is.D.x");
  const std::vector<EpochObservation> observations = {obs(200.0, 1.2, 5)};
  EXPECT_GT(model_prediction_distance(bt, is, observations), 0.5);
}

TEST(PredictionDistance, SimilarAtOneCapDifferentAcrossCaps) {
  // BT and SP nearly coincide around 247 W but diverge across a range —
  // the exact ambiguity probing resolves.
  const PowerPerfModel bt = model_for_class("bt.D.x");
  const PowerPerfModel sp = model_for_class("sp.D.x");
  const std::vector<EpochObservation> single = {obs(247.0, 1.01, 10)};
  const std::vector<EpochObservation> spread = {obs(230.0, 1.04, 10), obs(247.0, 1.01, 10),
                                                obs(262.0, 1.0, 10)};
  EXPECT_LT(model_prediction_distance(bt, sp, single), 0.02);
  EXPECT_GT(model_prediction_distance(bt, sp, spread), 0.02);
}

}  // namespace
}  // namespace anor::model
