// Figure 7: two BT instances (both high power sensitivity) under a shared
// 75 %-of-TDP budget, with one instance potentially misclassified as IS.
// 3 trials; the misclassified instance is reported separately
// ("bt.D.x=is.D.x", matching the paper's legend).
#include <iostream>

#include "bench_common.hpp"
#include "emu_common.hpp"

int main() {
  anor::bench::ArtifactScope artifacts("fig07_bt_bt_misclass");
  using namespace anor;
  bench::print_header("Figure 7",
                      "BT + BT, one misclassified as IS (3 trials, mean±sd)");

  bench::StaticScenario base;
  base.jobs = {{"bt.D.x", 2}, {"bt.D.x", 2}};
  base.node_count = 4;

  struct Row {
    const char* label;
    engine::PolicyRef policy;
    bool misclassify;
  };
  const Row rows[] = {
      {"Performance Agnostic", engine::PolicyRef("uniform"), false},
      {"Performance Aware", engine::PolicyRef("characterized"), false},
      {"Under-estimate bt", engine::PolicyRef("misclassified"), true},
      {"Under-estimate bt, with feedback", engine::PolicyRef("adjusted"), true},
  };

  util::TextTable table({"policy", "bt%", "bt_sd", "bt=is%", "bt=is_sd"});
  std::vector<std::vector<double>> csv_rows;
  for (const Row& row : rows) {
    bench::StaticScenario scenario = base;
    scenario.policy = row.policy;
    if (row.misclassify) {
      scenario.misclassify_type = "bt.D.x";
      scenario.misclassify_as = "is.D.x";
      scenario.misclassify_all = false;  // only the first instance
    }
    const auto stats = bench::run_trials(scenario, 3);
    util::RunningStats correct;
    util::RunningStats mislabeled;
    for (const auto& [label, s] : stats) {
      if (label == "bt.D.x") correct = s;
      else if (label == "bt.D.x=is.D.x") mislabeled = s;
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
  bench::print_csv({"bt_mean%", "bt_sd%", "bt_as_is_mean%", "bt_as_is_sd%"}, csv_rows);
  bench::print_note(
      "Expected (paper): agnostic ~= aware when both jobs share one curve;\n"
      "the misclassified instance slows down sharply; feedback recovers much\n"
      "of the loss.");
  return 0;
}
