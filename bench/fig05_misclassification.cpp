// Figure 5: performance impact when a medium-sensitivity job (FT, the
// "unknown" type) is misclassified as lower (IS) or higher (EP)
// sensitivity, co-scheduled with one high- (EP) and one low-sensitivity
// (IS) known job, across cluster budgets.  Four panels: under/over-predict
// x small/large unknown job.
//
// Paper takeaways: underprediction slows the unknown job; overprediction
// slows the co-scheduled sensitive jobs; the damage scales with the
// unknown job's relative size.
#include <iostream>

#include "bench_common.hpp"
#include "budget/even_slowdown.hpp"
#include "model/default_models.hpp"
#include "workload/job_type.hpp"

namespace {

using namespace anor;

struct ScenarioJob {
  const char* true_type;
  const char* assumed_type;  // what the budgeter believes
  int nodes;
};

/// True slowdown of each job when the budgeter assigns caps from the
/// *assumed* models.
std::vector<double> evaluate(const std::vector<ScenarioJob>& jobs, double budget_w) {
  std::vector<budget::JobPowerProfile> profiles;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    budget::JobPowerProfile profile;
    profile.job_id = static_cast<int>(j);
    profile.nodes = jobs[j].nodes;
    profile.model = model::model_for_class(jobs[j].assumed_type);
    profiles.push_back(std::move(profile));
  }
  const budget::EvenSlowdownBudgeter budgeter;
  const budget::BudgetResult result = budgeter.distribute(profiles, budget_w);
  std::vector<double> slowdowns;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const double cap = result.node_cap_w[j];
    slowdowns.push_back(workload::find_job_type(jobs[j].true_type).relative_time(cap) - 1.0);
  }
  return slowdowns;
}

void run_panel(const std::string& title, int unknown_nodes, int known_nodes,
               const char* assumed_for_unknown) {
  std::cout << "--- " << title << " ---\n";
  const std::vector<ScenarioJob> ideal = {
      {"ep.D.x", "ep.D.x", known_nodes},
      {"ft.D.x", "ft.D.x", unknown_nodes},
      {"is.D.x", "is.D.x", known_nodes},
  };
  std::vector<ScenarioJob> mischaracterized = ideal;
  mischaracterized[1].assumed_type = assumed_for_unknown;

  const std::vector<std::string> header = {
      "budget_w",      "ep_ideal%",  "ft_ideal%",  "is_ideal%",
      "ep_mischar%",   "ft_mischar%", "is_mischar%"};
  util::TextTable table(header);
  std::vector<std::vector<double>> csv_rows;
  for (double budget_w = 1400.0; budget_w <= 2800.0 + 1e-9; budget_w += 200.0) {
    // Scale the budget to the scenario's node count so all panels sweep a
    // comparable per-node range.
    const int total_nodes = 2 * known_nodes + unknown_nodes;
    const double scaled = budget_w * total_nodes / 10.0;
    const auto ideal_s = evaluate(ideal, scaled);
    const auto mischar_s = evaluate(mischaracterized, scaled);
    std::vector<double> row = {scaled};
    std::vector<std::string> fields = {util::TextTable::format_double(scaled, 0)};
    for (double s : ideal_s) {
      row.push_back(s * 100.0);
      fields.push_back(util::TextTable::format_percent(s));
    }
    for (double s : mischar_s) {
      row.push_back(s * 100.0);
      fields.push_back(util::TextTable::format_percent(s));
    }
    csv_rows.push_back(row);
    table.add_row(fields);
  }
  bench::print_table(table);
  bench::print_csv(header, csv_rows);
}

}  // namespace

int main() {
  anor::bench::ArtifactScope artifacts("fig05_misclassification");
  bench::print_header("Figure 5",
                      "misclassifying the unknown job's (FT) power sensitivity, "
                      "co-scheduled with EP (high) and IS (low)");

  run_panel("underpredict sensitivity of SMALL unknown job (FT->IS; 2 vs 4 nodes)",
            /*unknown_nodes=*/2, /*known_nodes=*/4, "is.D.x");
  run_panel("overpredict sensitivity of SMALL unknown job (FT->EP; 2 vs 4 nodes)",
            /*unknown_nodes=*/2, /*known_nodes=*/4, "ep.D.x");
  run_panel("underpredict sensitivity of LARGE unknown job (FT->IS; 8 vs 1 nodes)",
            /*unknown_nodes=*/8, /*known_nodes=*/1, "is.D.x");
  run_panel("overpredict sensitivity of LARGE unknown job (FT->EP; 8 vs 1 nodes)",
            /*unknown_nodes=*/8, /*known_nodes=*/1, "ep.D.x");

  bench::print_note(
      "Expected (paper): underprediction (FT->IS) starves the unknown job (high\n"
      "ft_mischar%); overprediction (FT->EP) starves the sensitive known job\n"
      "(ep_mischar% rises).  A large unknown job amplifies the co-scheduled\n"
      "damage; a small one mostly hurts itself.");
  return 0;
}
