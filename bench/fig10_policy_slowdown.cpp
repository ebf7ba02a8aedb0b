// Figure 10: mean execution-time slowdown per job type under a 1-hour
// schedule with time-varying cluster power caps, for the four policies:
// Uniform, Characterized, Misclassified (BT labeled IS), Adjusted
// (misclassified + feedback).  95 % node utilization, 6 long job types.
//
// Paper numbers: the three power-sensitive types (BT, LU, FT) suffer most
// under Uniform; Characterized trims the worst type from ~11.6 % to
// ~8.0 %; Misclassified pushes BT back up; Adjusted recovers most of it.
#include <iostream>

#include "bench_common.hpp"
#include "emu_common.hpp"

namespace {

using namespace anor;

std::map<std::string, util::RunningStats> run_policy(engine::PolicyRef policy,
                                                     bool misclassify_bt,
                                                     std::uint64_t seed) {
  cluster::EmulationConfig base = bench::paper_emulation_base();
  base.scheduler.power_aware_admission = true;
  engine::ScenarioSpec spec;
  spec.node_count = 16;
  spec.policy = policy;
  spec.seed = seed;

  workload::PoissonScheduleConfig schedule_config;
  schedule_config.duration_s = 3600.0;
  schedule_config.utilization = 0.95;
  schedule_config.cluster_nodes = 16;
  spec.schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), schedule_config, util::Rng(seed).child("schedule"));
  if (misclassify_bt) workload::misclassify(spec.schedule, "bt.D.x", "is.D.x");
  spec.targets = workload::fig9_targets(seed);

  const auto result = engine::run_scenario(spec, base);
  std::map<std::string, util::RunningStats> stats;
  for (const auto& job : result.completed) {
    stats[job.request.type_name].add(job.slowdown());
  }
  return stats;
}

}  // namespace

int main() {
  anor::bench::ArtifactScope artifacts("fig10_policy_slowdown");
  bench::print_header("Figure 10",
                      "mean slowdown per job type under 1-hour time-varying caps "
                      "(95% CI over jobs)");

  struct Row {
    const char* label;
    engine::PolicyRef policy;
    bool misclassify;
  };
  const Row rows[] = {
      {"Uniform", engine::PolicyRef("uniform"), false},
      {"Characterized", engine::PolicyRef("characterized"), false},
      {"Misclassified", engine::PolicyRef("misclassified"), true},
      {"Adjusted", engine::PolicyRef("adjusted"), true},
  };

  std::vector<std::string> type_names;
  for (const auto& type : workload::nas_long_job_types()) type_names.push_back(type.name);

  std::vector<std::string> header = {"policy"};
  for (const auto& name : type_names) {
    header.push_back(name + "%");
    header.push_back("ci");
  }
  header.push_back("worst%");
  util::TextTable table(header);
  std::vector<std::vector<double>> csv_rows;

  for (const Row& row : rows) {
    const auto stats = run_policy(row.policy, row.misclassify, 9);
    std::vector<std::string> fields = {row.label};
    std::vector<double> csv = {};
    double worst = 0.0;
    for (const auto& name : type_names) {
      const auto it = stats.find(name);
      const double mean = it != stats.end() ? it->second.mean() : 0.0;
      const double ci = it != stats.end() ? it->second.ci_half_width() : 0.0;
      worst = std::max(worst, mean);
      fields.push_back(util::TextTable::format_percent(mean));
      fields.push_back(util::TextTable::format_percent(ci));
      csv.push_back(mean * 100);
      csv.push_back(ci * 100);
    }
    fields.push_back(util::TextTable::format_percent(worst));
    csv.push_back(worst * 100);
    table.add_row(fields);
    csv_rows.push_back(csv);
  }
  bench::print_table(table);
  {
    std::vector<std::string> csv_header;
    for (const auto& name : type_names) {
      csv_header.push_back(name + "_mean%");
      csv_header.push_back(name + "_ci%");
    }
    csv_header.push_back("worst%");
    bench::print_csv(csv_header, csv_rows);
  }
  bench::print_note(
      "Expected (paper): Uniform slows BT/LU/FT most (worst ~11.6%);\n"
      "Characterized steers power to them (worst ~8.0%); Misclassified slows BT\n"
      "again; Adjusted recovers most of the loss.");
  return 0;
}
