// End-to-end integration tests: the full two-tier stack reproducing the
// paper's qualitative claims at miniature scale.
#include <gtest/gtest.h>

#include "engine/runner.hpp"
#include "platform/cluster_hw.hpp"
#include "sim/simulator.hpp"

namespace anor::engine {
namespace {

cluster::EmulationConfig fast_base() {
  cluster::EmulationConfig config;
  config.node.package.response_tau_s = 0.0;
  config.step_s = 0.25;
  config.controller.kernel.time_noise_sigma = 0.0;
  config.controller.kernel.power_noise_sigma_w = 0.0;
  config.scheduler.power_aware_admission = false;
  // Track 4 s target steps promptly, as the benches configure it.
  config.manager.control_period_s = 0.5;
  config.endpoint.period_s = 0.5;
  return config;
}

workload::Schedule bt_sp_schedule() {
  workload::Schedule schedule;
  workload::JobRequest bt;
  bt.job_id = 0;
  bt.type_name = "bt.D.x";
  bt.submit_time_s = 0.0;
  bt.nodes = 2;
  workload::JobRequest sp;
  sp.job_id = 1;
  sp.type_name = "sp.D.x";
  sp.submit_time_s = 0.0;
  sp.nodes = 2;
  schedule.jobs = {bt, sp};
  schedule.duration_s = 1.0;
  return schedule;
}

double slowdown_of(const RunResult& result, const std::string& type) {
  for (const auto& job : result.completed) {
    if (job.request.type_name == type) return job.slowdown();
  }
  ADD_FAILURE() << "job type not found: " << type;
  return 0.0;
}

/// The Fig. 6 budget: 75 % of TDP over 4 nodes, plus idle headroom.
double fig6_budget(const cluster::EmulationConfig& config, int total_nodes,
                   int busy_nodes) {
  return busy_nodes * 0.75 * 280.0 +
         (total_nodes - busy_nodes) * config.manager.idle_node_power_w;
}

TEST(EndToEnd, PerformanceAwareBeatsAgnosticForSensitiveJob) {
  // Paper Fig. 6: under a shared 75 %-of-TDP budget, the characterized
  // even-slowdown policy slows BT less than the performance-agnostic one.
  const cluster::EmulationConfig base = fast_base();
  ScenarioSpec agnostic;
  agnostic.node_count = 4;
  agnostic.schedule = bt_sp_schedule();
  agnostic.policy = PolicyRef("uniform");
  agnostic.static_budget_w = fig6_budget(base, 4, 4);

  ScenarioSpec aware = agnostic;
  aware.policy = PolicyRef("characterized");

  const auto agnostic_result = run_scenario(agnostic, base);
  const auto aware_result = run_scenario(aware, base);
  ASSERT_EQ(agnostic_result.completed.size(), 2u);
  ASSERT_EQ(aware_result.completed.size(), 2u);

  const double bt_agnostic = slowdown_of(agnostic_result, "bt.D.x");
  const double bt_aware = slowdown_of(aware_result, "bt.D.x");
  EXPECT_LT(bt_aware, bt_agnostic - 0.01);
  // And the worst-case job improves.
  const double worst_agnostic =
      std::max(bt_agnostic, slowdown_of(agnostic_result, "sp.D.x"));
  const double worst_aware =
      std::max(bt_aware, slowdown_of(aware_result, "sp.D.x"));
  EXPECT_LT(worst_aware, worst_agnostic);
}

TEST(EndToEnd, MisclassificationHurtsAndFeedbackRecovers) {
  // Paper Fig. 6/7: BT misclassified as IS slows BT down; the adjusted
  // policy (feedback on) recovers most of the loss.
  const cluster::EmulationConfig base = fast_base();
  ScenarioSpec characterized;
  characterized.node_count = 4;
  characterized.schedule = bt_sp_schedule();
  characterized.policy = PolicyRef("characterized");
  characterized.static_budget_w = fig6_budget(base, 4, 4);

  ScenarioSpec misclassified = characterized;
  misclassified.policy = PolicyRef("misclassified");
  workload::misclassify(misclassified.schedule, "bt.D.x", "is.D.x");

  ScenarioSpec adjusted = misclassified;
  adjusted.policy = PolicyRef("adjusted");

  const double bt_good = slowdown_of(run_scenario(characterized, base), "bt.D.x");
  const double bt_bad = slowdown_of(run_scenario(misclassified, base), "bt.D.x");
  const double bt_fixed = slowdown_of(run_scenario(adjusted, base), "bt.D.x");

  EXPECT_GT(bt_bad, bt_good + 0.02);   // misclassification hurts
  EXPECT_LT(bt_fixed, bt_bad - 0.01);  // feedback recovers
}

TEST(EndToEnd, TimeVaryingTargetTrackedWithinReserveBand) {
  // Paper Fig. 9 in miniature: a few-minute schedule under moving targets;
  // tracking error (normalized by reserve) within 30 % at least 90 % of
  // the time once load is present.
  cluster::EmulationConfig base = fast_base();
  base.scheduler.power_aware_admission = true;
  ScenarioSpec spec;
  spec.node_count = 4;

  // Saturate the 4 nodes for the whole window with staggered arrivals.
  workload::Schedule schedule;
  int id = 0;
  for (double t = 0.0; t < 240.0; t += 30.0) {
    for (const char* type : {"bt.D.x", "sp.D.x"}) {
      workload::JobRequest request;
      request.job_id = id++;
      request.type_name = type;
      request.submit_time_s = t;
      request.nodes = 2;
      schedule.jobs.push_back(request);
    }
  }
  schedule.duration_s = 240.0;
  spec.schedule = schedule;
  spec.policy = PolicyRef("characterized");

  // Targets: 4-node bid scaled from the paper's 16-node range.
  const workload::DemandResponseBid bid{4 * 195.0 + 0.0, 4 * 40.0};
  const workload::RandomWalkRegulation regulation(util::Rng(11), 400.0, 4.0, 0.15);
  spec.targets = workload::make_power_target_series(bid, regulation, 360.0, 4.0);

  const auto result = run_scenario(spec, base);
  ASSERT_GT(result.completed.size(), 4u);

  // Evaluate tracking on the saturated window only (after warmup).
  util::TimeSeries measured;
  for (std::size_t i = 0; i < result.power_w.size(); ++i) {
    const double t = result.power_w.times()[i];
    if (t > 30.0 && t < 240.0) measured.add(t, result.power_w.values()[i]);
  }
  const auto stats = util::tracking_error(measured, result.target_w, bid.reserve_w);
  EXPECT_GE(stats.fraction_within_30, 0.90) << "p90=" << stats.p90_error;
}

TEST(EndToEnd, VariationDegradesQosInSimulation) {
  // Paper Fig. 11 in miniature: higher node-to-node variation produces
  // higher 90th-percentile QoS degradation.
  sim::SimConfig config;
  config.node_count = 60;
  config.duration_s = 1500.0;
  config.job_types = sim::standard_sim_types(true, 1);
  const workload::DemandResponseBid bid{60 * 150.0, 60 * 30.0};

  auto worst_q = [&](double sigma) {
    sim::SimConfig c = config;
    c.perf_variation_sigma = sigma;
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      total += sim::run_simulation(c, bid, 0.75, seed).qos.worst_quantile();
    }
    return total / 3.0;
  };

  const double q_none = worst_q(0.0);
  const double q_heavy = worst_q(platform::sigma_from_band99(0.30));
  EXPECT_GT(q_heavy, q_none);
}

}  // namespace
}  // namespace anor::engine
