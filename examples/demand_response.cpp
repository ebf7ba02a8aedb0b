// Demand response end to end, the file-driven way the paper's cluster ran:
// generate an hour-long job schedule and a time-varying power-target file,
// hand both to the framework, and report tracking quality and per-type
// slowdown.
//
//   $ ./demand_response [seed]
#include <cstdlib>
#include <iostream>

#include "cluster/emulation.hpp"
#include "engine/runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/regulation.hpp"

int main(int argc, char** argv) {
  using namespace anor;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // --- the cluster offers flexibility for the next hour ---
  const workload::DemandResponseBid bid = workload::fig9_bid();
  std::cout << "bidding mean " << bid.average_power_w / 1000.0 << " kW, reserve "
            << bid.reserve_w / 1000.0 << " kW for the hour\n";

  // --- the grid sends targets; the batch system takes submissions ---
  // Both are written to files and read back, as the paper's head-node
  // process does (Sec. 4.1: "reads power targets and a job submission
  // schedule from files").
  const std::string dir = "/tmp";
  const util::TimeSeries targets = workload::fig9_targets(seed);
  util::save_json_file(dir + "/anor_targets.json", workload::power_targets_to_json(targets));

  workload::PoissonScheduleConfig schedule_config;
  schedule_config.duration_s = 3600.0;
  schedule_config.utilization = 0.95;
  schedule_config.cluster_nodes = 16;
  const workload::Schedule schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), schedule_config, util::Rng(seed).child("schedule"));
  schedule.save(dir + "/anor_schedule.json");

  // --- run the hour ---
  cluster::EmulationConfig base;
  base.scheduler.power_aware_admission = true;
  engine::ScenarioSpec spec;
  spec.node_count = 16;
  spec.policy = "characterized";
  spec.seed = seed;
  spec.schedule = workload::Schedule::load(dir + "/anor_schedule.json");
  spec.targets =
      workload::power_targets_from_json(util::load_json_file(dir + "/anor_targets.json"));

  std::cout << "running " << spec.schedule.jobs.size()
            << " job arrivals over one hour on 16 nodes...\n";
  const engine::RunResult result = engine::run_scenario(spec, base);

  // --- report ---
  util::TimeSeries steady;
  for (std::size_t i = 0; i < result.power_w.size(); ++i) {
    const double t = result.power_w.times()[i];
    if (t >= 300.0 && t <= 3600.0) steady.add(t, result.power_w.values()[i]);
  }
  const auto tracking = util::tracking_error(steady, result.target_w, bid.reserve_w);
  std::cout << "\npower tracking (after 300 s warmup):\n"
            << "  mean error  " << util::TextTable::format_percent(tracking.mean_error)
            << " of reserve\n"
            << "  p90 error   " << util::TextTable::format_percent(tracking.p90_error) << "\n"
            << "  within 30%  " << util::TextTable::format_percent(tracking.fraction_within_30)
            << " of the time (constraint: >=90%)\n";

  std::cout << "\nper-type mean slowdown (" << result.completed.size() << " jobs):\n";
  for (const auto& [type, stats] : result.slowdown_by_type()) {
    std::cout << "  " << type << "  " << util::TextTable::format_percent(stats.mean())
              << "  (n=" << stats.count() << ")\n";
  }
  std::cout << "\nQoS: worst 90th-percentile degradation "
            << util::TextTable::format_double(result.qos.worst_quantile(), 2)
            << " (target <= 5): " << (result.qos.satisfied() ? "OK" : "VIOLATED") << "\n";
  if (!result.qos.satisfied()) {
    std::cout << "(95% utilization with untrained uniform queue weights queues jobs\n"
                 " deeply; see examples/capacity_planning for the AQA weight-training\n"
                 " loop that trades utilization against QoS.)\n";
  }
  return 0;
}
