// Ablation: EASY backfill in the AQA scheduler (in the spirit of RMAP's
// backfilling integration, which the paper cites).
//
// At high utilization, wide jobs block their queues while narrow gaps sit
// idle; intra-queue backfill lets short jobs use the gap without delaying
// the blocked head.  We compare QoS and realized utilization on the
// tabular simulator.
#include <iostream>

#include "bench_common.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "workload/schedule.hpp"

int main() {
  anor::bench::ArtifactScope artifacts("abl_backfill");
  using namespace anor;
  bench::print_header("Ablation", "EASY backfill vs strict queue order (3 seeds)");

  util::TextTable table({"scheduler", "worst_p90_QoS", "mean_p90_QoS", "utilization",
                         "jobs_done", "backfills"});
  std::vector<std::vector<double>> csv_rows;

  struct Mode {
    const char* label;
    bool single_queue;
    bool backfill;
  };
  const Mode modes[] = {
      {"FCFS (single queue)", true, false},
      {"FCFS + EASY backfill", true, true},
      {"AQA per-type queues", false, false},
      {"AQA + EASY backfill", false, true},
  };
  for (const Mode& mode : modes) {
    util::RunningStats worst_q;
    util::RunningStats mean_q;
    util::RunningStats utilization;
    util::RunningStats jobs;
    util::RunningStats backfills;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::SimConfig config;
      config.node_count = 120;
      config.duration_s = 2400.0;
      config.job_types = sim::standard_sim_types(false, 1);  // incl. short IS/EP
      config.backfill = mode.backfill;
      config.single_queue = mode.single_queue;
      config.tracking_warmup_s = 300.0;

      // Heterogeneous instance sizes inside each queue — the regime where
      // wide heads block and narrow jobs can backfill: every 4th instance
      // runs wide (6x nodes); the rest carry walltime hints.
      util::Rng rng(seed);
      workload::PoissonScheduleConfig schedule_config;
      schedule_config.duration_s = config.duration_s;
      schedule_config.utilization = 0.28;  // wide instances inflate node-seconds ~2.75x -> ~0.77 effective
      schedule_config.cluster_nodes = config.node_count;
      std::vector<workload::JobType> gen_types;
      for (const auto& t : workload::nas_job_types()) gen_types.push_back(t);
      workload::Schedule schedule = workload::generate_poisson_schedule(
          gen_types, schedule_config, rng.child("schedule"));
      for (auto& job : schedule.jobs) {
        const auto& type = workload::find_job_type(job.type_name);
        if (job.job_id % 4 == 0) {
          job.nodes = type.nodes * 8;
        } else {
          job.nodes = type.nodes;
          job.walltime_hint_s = type.min_exec_time_s() * 1.3;
        }
      }
      sim::set_bid_targets(config, {120 * 165.0, 120 * 15.0}, rng.child("sim"));
      sim::TabularSimulator simulator(config, schedule, rng.child("sim"));
      const sim::SimResult result = simulator.run();
      worst_q.add(result.qos.worst_quantile());
      util::RunningStats per_type;
      for (const auto& [type, q] : result.qos.percentile_by_type(90.0)) per_type.add(q);
      mean_q.add(per_type.mean());
      utilization.add(result.mean_utilization);
      jobs.add(result.jobs_completed);
      backfills.add(static_cast<double>(simulator.scheduler().backfilled_count()));
    }
    table.add_row({mode.label, util::TextTable::format_double(worst_q.mean(), 2),
                   util::TextTable::format_double(mean_q.mean(), 2),
                   util::TextTable::format_percent(utilization.mean()),
                   util::TextTable::format_double(jobs.mean(), 0),
                   util::TextTable::format_double(backfills.mean(), 0)});
    csv_rows.push_back({worst_q.mean(), mean_q.mean(), utilization.mean() * 100, jobs.mean(),
                        backfills.mean()});
  }
  bench::print_table(table);
  bench::print_csv({"worst_q", "mean_q", "util%", "jobs", "backfills"}, csv_rows);
  bench::print_note(
      "Expected: single-queue FCFS suffers head-of-line blocking behind wide\n"
      "jobs; EASY backfill recovers most of the lost QoS/utilization.  AQA's\n"
      "per-type queues are already work-conserving, so backfill adds little\n"
      "there — one reason the paper's scheduler needs no explicit backfill.");
  return 0;
}
