// Capacity planning with the tabular simulator: train AQA queue weights
// and search a demand-response bid for a 200-node cluster, including an
// unknown user job type synthesized per the paper's Sec. 4.4.2 mechanism.
//
//   $ ./capacity_planning
#include <iostream>

#include "sched/bidder.hpp"
#include "sched/weight_trainer.hpp"
#include "sim/evaluators.hpp"
#include "util/table.hpp"

int main() {
  using namespace anor;
  std::cout << "planning a 200-node cluster's demand-response participation\n\n";

  // --- cluster and workload description ---
  sim::SimConfig base;
  base.node_count = 200;
  base.duration_s = 1800.0;
  base.job_types = sim::standard_sim_types(/*long_types_only=*/true, /*node_scale=*/1);
  base.tracking_warmup_s = 300.0;

  // One user queue holds a job type we have never characterized; the user
  // only provided its typical runtime and size.  Synthesize its power
  // properties from the known types (paper Sec. 4.4.2).
  util::Rng rng(7);
  const sched::TrainingJobType unknown = sched::synthesize_unknown_type(
      "user.app", /*min_exec_time_s=*/240.0, /*nodes=*/2, workload::nas_long_job_types(),
      rng);
  base.job_types.push_back(sim::SimJobType::from_job_type(unknown.type));
  std::cout << "synthesized unknown type 'user.app': max slowdown "
            << util::TextTable::format_percent(unknown.type.max_slowdown())
            << ", power range [" << unknown.type.min_power_w << ", "
            << unknown.type.max_power_w << "] W/node (sampled from known types)\n\n";

  // --- train queue weights against the simulator ---
  sim::EvaluatorConfig eval_config;
  eval_config.base = base;
  eval_config.bid.average_power_w = 200 * 150.0;
  eval_config.bid.reserve_w = 200 * 15.0;
  eval_config.utilization = 0.75;
  eval_config.seed = 11;

  std::vector<std::string> type_names;
  for (const auto& t : base.job_types) type_names.push_back(t.name);

  sched::WeightTrainerConfig trainer_config;
  trainer_config.iterations = 24;  // keep the example quick
  const auto training = sched::train_queue_weights(
      type_names, sim::make_weight_evaluator(eval_config), trainer_config, util::Rng(3));
  std::cout << "trained queue weights (score " << training.score << ", "
            << training.evaluations << " simulations):\n";
  for (const auto& [name, weight] : training.weights) {
    std::cout << "  " << name << "  " << util::TextTable::format_double(weight, 2) << "\n";
  }

  // --- search the bid ---
  sched::BidderConfig bidder_config;
  bidder_config.min_mean_w = 200 * 120.0;
  bidder_config.max_mean_w = 200 * 180.0;
  bidder_config.mean_steps = 5;
  bidder_config.reserve_steps = 3;
  sim::EvaluatorConfig bid_eval = eval_config;
  bid_eval.base.queue_weights = training.weights;
  const sched::DemandResponseBidder bidder(bidder_config);
  const auto best = bidder.search(sim::make_bid_evaluator(bid_eval, bidder_config));

  if (!best) {
    std::cout << "\nno feasible bid found -- the cluster should not enroll.\n";
    return 1;
  }
  std::cout << "\nchosen bid (from " << best->candidates_tried << " candidates, "
            << best->candidates_feasible << " feasible):\n"
            << "  mean power " << best->bid.average_power_w / 1000.0 << " kW\n"
            << "  reserve    " << best->bid.reserve_w / 1000.0 << " kW\n"
            << "  energy cost $" << util::TextTable::format_double(best->evaluation.energy_cost, 2)
            << ", reserve credit $"
            << util::TextTable::format_double(best->evaluation.reserve_credit, 2)
            << " -> net $"
            << util::TextTable::format_double(best->evaluation.net_cost(), 2) << "/run\n"
            << "  QoS constraint satisfied, tracking within 30% of reserve >=90% of time\n";
  return 0;
}
