// Figure 6: measured job slowdown when BT (high power sensitivity) and SP
// (low) co-run under a shared budget of 75 % of TDP, across six policies:
// performance-agnostic, performance-aware, under-estimate BT (as IS) with
// and without feedback, over-estimate SP (as EP) with and without
// feedback.  3 trials.
#include <iostream>

#include "bench_common.hpp"
#include "emu_common.hpp"

int main() {
  anor::bench::ArtifactScope artifacts("fig06_bt_sp_shared_cap");
  using namespace anor;
  bench::print_header("Figure 6",
                      "BT + SP under a shared 75%-of-TDP budget (3 trials, mean±sd)");

  bench::StaticScenario base;
  base.jobs = {{"bt.D.x", 2}, {"sp.D.x", 2}};
  base.node_count = 4;

  struct Row {
    const char* label;
    engine::PolicyRef policy;
    const char* mis_type;
    const char* mis_as;
  };
  const Row rows[] = {
      {"Performance Agnostic", engine::PolicyRef("uniform"), "", ""},
      {"Performance Aware", engine::PolicyRef("characterized"), "", ""},
      {"Under-estimate bt", engine::PolicyRef("misclassified"), "bt.D.x", "is.D.x"},
      {"Under-estimate bt, with feedback", engine::PolicyRef("adjusted"), "bt.D.x", "is.D.x"},
      {"Over-estimate sp", engine::PolicyRef("misclassified"), "sp.D.x", "ep.D.x"},
      {"Over-estimate sp, with feedback", engine::PolicyRef("adjusted"), "sp.D.x", "ep.D.x"},
  };

  util::TextTable table({"policy", "bt_slowdown%", "bt_sd", "sp_slowdown%", "sp_sd"});
  std::vector<std::vector<double>> csv_rows;
  for (const Row& row : rows) {
    bench::StaticScenario scenario = base;
    scenario.policy = row.policy;
    scenario.misclassify_type = row.mis_type;
    scenario.misclassify_as = row.mis_as;
    scenario.misclassify_all = true;  // single instance each: label it
    const auto stats = bench::run_trials(scenario, 3);

    util::RunningStats bt;
    util::RunningStats sp;
    for (const auto& [label, s] : stats) {
      if (label.rfind("bt.D.x", 0) == 0) bt = s;
      if (label.rfind("sp.D.x", 0) == 0) sp = s;
    }
    table.add_row({row.label, util::TextTable::format_percent(bt.mean()),
                   util::TextTable::format_percent(bt.stddev()),
                   util::TextTable::format_percent(sp.mean()),
                   util::TextTable::format_percent(sp.stddev())});
    csv_rows.push_back({bt.mean() * 100, bt.stddev() * 100, sp.mean() * 100,
                        sp.stddev() * 100});
  }
  bench::print_table(table);
  bench::print_csv({"bt_mean%", "bt_sd%", "sp_mean%", "sp_sd%"}, csv_rows);
  bench::print_note(
      "Expected (paper): aware < agnostic for BT; misclassifying BT as IS slows\n"
      "BT sharply; feedback recovers most of it.  Misclassifying SP as EP slows\n"
      "BT (SP steals power); feedback recovers that too.");
  return 0;
}
