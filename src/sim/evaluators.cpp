#include "sim/evaluators.hpp"

#include <limits>

#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace anor::sim {

sched::BidEvaluator make_bid_evaluator(EvaluatorConfig config,
                                       const sched::BidderConfig& prices) {
  return [config, prices](const workload::DemandResponseBid& bid) {
    const SimResult result =
        run_simulation(config.base, bid, config.utilization, config.seed);

    sched::BidEvaluation eval;
    eval.qos_ok = result.qos.satisfied();
    eval.tracking_ok = result.tracking.samples > 0 &&
                       result.tracking.p90_error <= config.tracking_error_limit;
    const double hours = config.base.duration_s / util::kSecondsPerHour;
    eval.energy_cost =
        prices.energy_price_per_kwh * util::kilowatts_from_watts(bid.average_power_w) * hours;
    eval.reserve_credit =
        prices.reserve_credit_per_kw * util::kilowatts_from_watts(bid.reserve_w) * hours;
    return eval;
  };
}

sched::WeightEvaluator make_weight_evaluator(EvaluatorConfig config) {
  return [config](const std::map<std::string, double>& weights) {
    SimConfig candidate = config.base;
    candidate.queue_weights = weights;
    const SimResult result =
        run_simulation(candidate, config.bid, config.utilization, config.seed);
    const bool tracking_ok =
        config.bid.reserve_w <= 0.0 ||
        (result.tracking.samples > 0 &&
         result.tracking.p90_error <= config.tracking_error_limit);
    if (!tracking_ok) return -std::numeric_limits<double>::infinity();
    return -result.qos.worst_quantile();
  };
}

}  // namespace anor::sim
