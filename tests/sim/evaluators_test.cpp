#include "sim/evaluators.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "sim/simulator.hpp"

namespace anor::sim {
namespace {

EvaluatorConfig small_eval_config() {
  // A 100-node cluster keeps lull-induced infeasibility rare; smaller
  // clusters see deep empty-queue troughs no budgeter can track through.
  EvaluatorConfig config;
  config.base.node_count = 100;
  config.base.duration_s = 1500.0;
  config.base.job_types = standard_sim_types(true, 1);
  config.base.tracking_warmup_s = 300.0;
  config.utilization = 0.75;
  config.seed = 5;
  return config;
}

TEST(BidEvaluator, ReasonableBidIsFeasible) {
  const EvaluatorConfig config = small_eval_config();
  sched::BidderConfig prices;
  const auto evaluate = make_bid_evaluator(config, prices);

  workload::DemandResponseBid bid;
  bid.average_power_w = 100 * 150.0;
  bid.reserve_w = 100 * 18.0;
  const auto eval = evaluate(bid);
  EXPECT_TRUE(eval.tracking_ok);
  EXPECT_TRUE(eval.qos_ok);
  EXPECT_GT(eval.energy_cost, 0.0);
  EXPECT_GT(eval.reserve_credit, 0.0);
}

TEST(BidEvaluator, AbsurdlyLowMeanFailsSomething) {
  const EvaluatorConfig config = small_eval_config();
  sched::BidderConfig prices;
  const auto evaluate = make_bid_evaluator(config, prices);
  workload::DemandResponseBid bid;
  bid.average_power_w = 100 * 60.0;  // below even idle+floor feasibility
  bid.reserve_w = 100 * 5.0;
  const auto eval = evaluate(bid);
  EXPECT_FALSE(eval.tracking_ok && eval.qos_ok);
}

TEST(BidEvaluator, CostsScaleWithPrices) {
  const EvaluatorConfig config = small_eval_config();
  sched::BidderConfig cheap;
  cheap.energy_price_per_kwh = 0.10;
  sched::BidderConfig expensive;
  expensive.energy_price_per_kwh = 0.20;
  workload::DemandResponseBid bid;
  bid.average_power_w = 8000.0;
  bid.reserve_w = 1000.0;
  const auto low = make_bid_evaluator(config, cheap)(bid);
  const auto high = make_bid_evaluator(config, expensive)(bid);
  EXPECT_NEAR(high.energy_cost, 2.0 * low.energy_cost, 1e-9);
}

TEST(WeightEvaluator, ReturnsFiniteScoreForUniformWeights) {
  const EvaluatorConfig config = small_eval_config();
  const auto evaluate = make_weight_evaluator(config);
  std::map<std::string, double> weights;
  for (const auto& t : config.base.job_types) weights[t.name] = 1.0;
  const double score = evaluate(weights);
  EXPECT_TRUE(std::isfinite(score));
  EXPECT_LE(score, 0.0);  // score = -worst quantile
}

TEST(WeightEvaluator, InfeasibleTrackingIsMinusInfinity) {
  EvaluatorConfig config = small_eval_config();
  config.bid.average_power_w = 60 * 50.0;  // untrackable
  config.bid.reserve_w = 60 * 2.0;
  const auto evaluate = make_weight_evaluator(config);
  std::map<std::string, double> weights;
  for (const auto& t : config.base.job_types) weights[t.name] = 1.0;
  EXPECT_EQ(evaluate(weights), -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace anor::sim
