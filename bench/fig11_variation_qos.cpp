// Figure 11: 90th-percentile QoS degradation per job type under different
// levels of node-to-node performance variation, on the 1000-node tabular
// simulator.  Variation levels are "99 % of performance within ±x %" for
// x in {0, 7.5, 15, 22.5, 30}; 10 seeded trials per level; jobs scaled to
// 25x their 16-node node counts; 75 % utilization.  QoS target Q = 5.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "platform/cluster_hw.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

int main() {
  anor::bench::ArtifactScope artifacts("fig11_variation_qos");
  using namespace anor;
  bench::print_header("Figure 11",
                      "90th-pct QoS degradation vs performance variation "
                      "(1000 nodes, 10 trials/level, mean over trials)");

  const double levels[] = {0.0, 0.075, 0.15, 0.225, 0.30};
  constexpr std::size_t kTrials = 10;

  std::vector<std::string> type_names;
  for (const auto& type : workload::nas_long_job_types()) type_names.push_back(type.name);

  std::vector<std::string> header = {"variation_99pct"};
  for (const auto& name : type_names) header.push_back(name);
  header.push_back("tracking_ok");
  util::TextTable table(header);
  std::vector<std::vector<double>> csv_rows;

  // Trials run in parallel, one thread per hardware thread claiming them
  // in turn; each trial fills its own slot, and the slots are reduced in
  // trial order, so the table is a pure function of the seeds.
  struct Trial {
    std::map<std::string, double> q90_by_type;
    double within30 = 0.0;
  };
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kTrials);

  for (double level : levels) {
    std::vector<Trial> trials(kTrials);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t trial = next++; trial < kTrials; trial = next++) {
          sim::SimConfig config;
          config.node_count = 1000;
          config.duration_s = 3600.0;
          config.job_types = sim::standard_sim_types(true, /*node_scale=*/25);
          config.perf_variation_sigma = platform::sigma_from_band99(level);
          config.tracking_warmup_s = 300.0;
          const sim::SimResult result =
              sim::run_simulation(config, {1000 * 150.0, 1000 * 18.0}, 0.75, 1000 + trial);
          trials[trial].q90_by_type = result.qos.percentile_by_type(90.0);
          trials[trial].within30 = result.tracking.fraction_within_30;
        }
      });
    }
    for (std::thread& thread : pool) thread.join();

    std::map<std::string, util::RunningStats> q90_by_type;
    util::RunningStats within30;
    for (const Trial& trial : trials) {
      for (const auto& [type, q] : trial.q90_by_type) q90_by_type[type].add(q);
      within30.add(trial.within30);
    }

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
