// Figure 11: 90th-percentile QoS degradation per job type under different
// levels of node-to-node performance variation, on the 1000-node tabular
// simulator.  Variation levels are "99 % of performance within ±x %" for
// x in {0, 7.5, 15, 22.5, 30}; 10 seeded trials per level; jobs scaled to
// 25x their 16-node node counts; 75 % utilization.  QoS target Q = 5.
#include <iostream>
#include <mutex>

#include "bench_common.hpp"
#include "platform/cluster_hw.hpp"
#include "sim/simulator.hpp"
#include "util/shard_workers.hpp"
#include "util/stats.hpp"

int main() {
  anor::bench::ArtifactScope artifacts("fig11_variation_qos");
  using namespace anor;
  bench::print_header("Figure 11",
                      "90th-pct QoS degradation vs performance variation "
                      "(1000 nodes, 10 trials/level, mean over trials)");

  const double levels[] = {0.0, 0.075, 0.15, 0.225, 0.30};
  constexpr int kTrials = 10;

  std::vector<std::string> type_names;
  for (const auto& type : workload::nas_long_job_types()) type_names.push_back(type.name);

  std::vector<std::string> header = {"variation_99pct"};
  for (const auto& name : type_names) header.push_back(name);
  header.push_back("tracking_ok");
  util::TextTable table(header);
  std::vector<std::vector<double>> csv_rows;

  for (double level : levels) {
    std::map<std::string, util::RunningStats> q90_by_type;
    util::RunningStats within30;
    std::mutex mutex;

    util::ShardWorkers team(0);  // one lane per hardware thread
    team.parallel_for(kTrials, [&](std::size_t trial) {
      sim::SimConfig config;
      config.node_count = 1000;
      config.duration_s = 3600.0;
      config.job_types = sim::standard_sim_types(true, /*node_scale=*/25);
      config.perf_variation_sigma = platform::sigma_from_band99(level);
      config.bid.average_power_w = 1000 * 150.0;
      config.bid.reserve_w = 1000 * 18.0;
      config.tracking_warmup_s = 300.0;
      const sim::SimResult result =
          sim::run_simulation(config, 0.75, 1000 + trial);
      const auto q90 = result.qos.percentile_by_type(90.0);
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& [type, q] : q90) q90_by_type[type].add(q);
      within30.add(result.tracking.fraction_within_30);
    });

    std::vector<std::string> fields = {
        "±" + util::TextTable::format_percent(level, 1)};
    std::vector<double> csv = {level * 100};
    for (const auto& name : type_names) {
      const auto it = q90_by_type.find(name);
      const double q = it != q90_by_type.end() ? it->second.mean() : 0.0;
      fields.push_back(util::TextTable::format_double(q, 2));
      csv.push_back(q);
    }
    fields.push_back(util::TextTable::format_percent(within30.mean()));
    csv.push_back(within30.mean() * 100);
    table.add_row(fields);
    csv_rows.push_back(csv);
  }
  bench::print_table(table);
  bench::print_csv(header, csv_rows);
  bench::print_note(
      "Expected (paper): QoS degradation grows with variation for every type;\n"
      "some types cross the Q=5 target at high variation.  Power tracking stays\n"
      "within the 30% constraint at every level.");
  return 0;
}
