// Figure 8: two SP instances (both low power sensitivity) under a shared
// 75 %-of-TDP budget, with one instance potentially misclassified as EP.
// 6 trials.
#include <iostream>

#include "bench_common.hpp"
#include "emu_common.hpp"

int main() {
  anor::bench::ArtifactScope artifacts("fig08_sp_sp_misclass");
  using namespace anor;
  bench::print_header("Figure 8",
                      "SP + SP, one misclassified as EP (6 trials, mean±sd)");

  bench::StaticScenario base;
  base.jobs = {{"sp.D.x", 2}, {"sp.D.x", 2}};
  base.node_count = 4;

  struct Row {
    const char* label;
    engine::PolicyRef policy;
    bool misclassify;
  };
  const Row rows[] = {
      {"Performance Agnostic", engine::PolicyRef("uniform"), false},
      {"Performance Aware", engine::PolicyRef("characterized"), false},
      {"Over-estimate sp", engine::PolicyRef("misclassified"), true},
      {"Over-estimate sp, with feedback", engine::PolicyRef("adjusted"), true},
  };

  util::TextTable table({"policy", "sp%", "sp_sd", "sp=ep%", "sp=ep_sd"});
  std::vector<std::vector<double>> csv_rows;
  for (const Row& row : rows) {
    bench::StaticScenario scenario = base;
    scenario.policy = row.policy;
    if (row.misclassify) {
      scenario.misclassify_type = "sp.D.x";
      scenario.misclassify_as = "ep.D.x";
      scenario.misclassify_all = false;
    }
    const auto stats = bench::run_trials(scenario, 6);
    util::RunningStats correct;
    util::RunningStats mislabeled;
    for (const auto& [label, s] : stats) {
      if (label == "sp.D.x") correct = s;
      else if (label == "sp.D.x=ep.D.x") mislabeled = s;
    }
    if (!row.misclassify) mislabeled = correct;
    table.add_row({row.label, util::TextTable::format_percent(correct.mean()),
                   util::TextTable::format_percent(correct.stddev()),
                   util::TextTable::format_percent(mislabeled.mean()),
                   util::TextTable::format_percent(mislabeled.stddev())});
    csv_rows.push_back({correct.mean() * 100, correct.stddev() * 100,
                        mislabeled.mean() * 100, mislabeled.stddev() * 100});
  }
  bench::print_table(table);
  bench::print_csv({"sp_mean%", "sp_sd%", "sp_as_ep_mean%", "sp_as_ep_sd%"}, csv_rows);
  bench::print_note(
      "Expected (paper): small slowdowns throughout (SP is insensitive);\n"
      "misclassifying one SP as EP steals a little power from its co-scheduled\n"
      "SP; feedback recovers it.");
  return 0;
}
