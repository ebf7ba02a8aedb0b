// Ablation: the cluster manager's closed-loop budget correction (the
// measured-power feedback arrow of paper Fig. 1).
//
// Open-loop budgeting undershoots the target systematically — idle nodes
// and setup/teardown-phase jobs draw less than their caps admit.  The
// integral corrector compensates; too much gain chases target steps and
// adds variance.  We sweep the gain on the Fig. 9 scenario.
#include <iostream>

#include "bench_common.hpp"
#include "emu_common.hpp"

namespace {

using namespace anor;

util::TrackingErrorStats run_with_gain(bool closed_loop, double gain, double limit_w) {
  cluster::EmulationConfig base = bench::paper_emulation_base();
  base.scheduler.power_aware_admission = true;
  base.manager.closed_loop = closed_loop;
  base.manager.integral_gain_per_s = gain;
  base.manager.correction_limit_w = limit_w;
  engine::ScenarioSpec spec;
  spec.node_count = 16;
  spec.policy = engine::PolicyRef("characterized");
  spec.seed = 9;

  workload::PoissonScheduleConfig schedule_config;
  schedule_config.duration_s = 3600.0;
  schedule_config.utilization = 0.95;
  schedule_config.cluster_nodes = 16;
  spec.schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), schedule_config, util::Rng(9).child("schedule"));
  spec.targets = workload::fig9_targets(9);

  const auto result = engine::run_scenario(spec, base);
  util::TimeSeries measured;
  for (std::size_t i = 0; i < result.power_w.size(); ++i) {
    const double t = result.power_w.times()[i];
    if (t >= 300.0 && t <= 3600.0) measured.add(t, result.power_w.values()[i]);
  }
  return util::tracking_error(measured, result.target_w, workload::fig9_bid().reserve_w);
}

}  // namespace

int main() {
  anor::bench::ArtifactScope artifacts("abl_closed_loop");
  bench::print_header("Ablation",
                      "closed-loop budget correction gain (Fig. 9 scenario)");

  util::TextTable table({"configuration", "p90_error%", "mean_error%", "within_30%"});
  std::vector<std::vector<double>> csv_rows;

  const auto add = [&](const std::string& label, const util::TrackingErrorStats& stats) {
    table.add_row({label, util::TextTable::format_percent(stats.p90_error),
                   util::TextTable::format_percent(stats.mean_error),
                   util::TextTable::format_percent(stats.fraction_within_30)});
    csv_rows.push_back({stats.p90_error * 100, stats.mean_error * 100,
                        stats.fraction_within_30 * 100});
  };

  add("open loop", run_with_gain(false, 0.0, 0.0));
  for (double gain : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    add("gain " + util::TextTable::format_double(gain, 2),
        run_with_gain(true, gain, 400.0));
  }
  bench::print_table(table);
  bench::print_csv({"p90%", "mean%", "within30%"}, csv_rows);
  bench::print_note(
      "Expected: open loop biases low (undershoot); small gains remove the bias;\n"
      "large gains chase every 4 s target step and give the variance back.");
  return 0;
}
