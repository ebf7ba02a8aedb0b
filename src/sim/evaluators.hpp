// Simulator-backed evaluators for the AQA training loops.
//
// The bidder (sched/bidder.hpp) and the queue-weight trainer
// (sched/weight_trainer.hpp) treat evaluation as a black box; these
// adapters run the tabular simulator over a candidate and score it against
// the paper's constraints (QoS limit Q <= 5 with 90 % probability;
// tracking error <= 30 % for >= 90 % of the time).
#pragma once

#include <cstdint>

#include "sched/bidder.hpp"
#include "sched/weight_trainer.hpp"
#include "sim/sim_config.hpp"

namespace anor::sim {

struct EvaluatorConfig {
  SimConfig base;  // queue_weights is overwritten per weight candidate
  /// The bid the weight evaluator tracks (the bid evaluator tracks each
  /// candidate bid instead).
  workload::DemandResponseBid bid;
  double utilization = 0.75;
  std::uint64_t seed = 1;
  double tracking_error_limit = 0.30;
  double tracking_probability = 0.90;
};

/// Bid evaluator: simulate the hour under the candidate bid and check both
/// constraints; costs follow the bidder's price model.
sched::BidEvaluator make_bid_evaluator(EvaluatorConfig config, const sched::BidderConfig& prices);

/// Weight evaluator: simulate under candidate queue weights; score is
/// -worst_quantile(Q) when tracking holds, -infinity otherwise (so the
/// trainer minimizes worst-type QoS degradation subject to tracking).
sched::WeightEvaluator make_weight_evaluator(EvaluatorConfig config);

}  // namespace anor::sim
