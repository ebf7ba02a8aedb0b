// Figure 4: estimated job slowdown when one instance of each of the 8 job
// types runs under a shared cluster power budget, comparing the
// even-slowdown ("ideal") budgeter against even power caps.
//
// Paper shape: even-power fans the types out (sensitive types slow most,
// widening as budget shrinks); even-slowdown keeps all types on one curve
// until insensitive types level off at the floor cap.
#include <iostream>

#include "bench_common.hpp"
#include "budget/budgeter.hpp"
#include "model/default_models.hpp"
#include "workload/job_type.hpp"

namespace {

using namespace anor;

std::vector<budget::JobPowerProfile> one_of_each() {
  std::vector<budget::JobPowerProfile> jobs;
  int id = 0;
  for (const auto& type : workload::nas_job_types()) {
    budget::JobPowerProfile profile;
    profile.job_id = id++;
    profile.nodes = type.nodes;
    profile.model = model::PowerPerfModel::from_job_type(type);
    jobs.push_back(std::move(profile));
  }
  return jobs;
}

}  // namespace

int main() {
  anor::bench::ArtifactScope artifacts("fig04_budgeter_comparison");
  bench::print_header("Figure 4",
                      "estimated slowdown vs shared cluster budget, "
                      "even-slowdown (ideal) vs even power caps");

  const auto jobs = one_of_each();
  const auto& types = workload::nas_job_types();
  const double min_w = budget::total_min_power_w(jobs);
  const double max_w = budget::total_max_power_w(jobs);
  std::cout << "cluster of " << jobs.size() << " jobs, feasible power ["
            << min_w << ", " << max_w << "] W\n\n";

  for (const bool ideal : {true, false}) {
    // Instrumented, so the run artifacts carry the cluster.budget.* series.
    const auto budgeter = budget::instrument_budgeter(
        (ideal ? budget::even_slowdown_factory() : budget::even_power_factory())());
    std::cout << "--- budgeter: " << budgeter->name() << (ideal ? " (ideal)" : "") << " ---\n";

    std::vector<std::string> header = {"budget_w"};
    for (const auto& type : types) header.push_back(type.name + "_slowdown%");
    util::TextTable table(header);
    std::vector<std::vector<double>> csv_rows;

    for (double budget_w = 1500.0; budget_w <= 3000.0 + 1e-9; budget_w += 100.0) {
      const budget::BudgetResult result = budgeter->distribute(jobs, budget_w);
      std::vector<double> row = {budget_w};
      std::vector<std::string> fields = {util::TextTable::format_double(budget_w, 0)};
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        // The *true* slowdown each job suffers at its assigned cap.
        const double cap = result.node_cap_w[j];
        const double slowdown = types[j].relative_time(cap) - 1.0;
        row.push_back(slowdown * 100.0);
        fields.push_back(util::TextTable::format_percent(slowdown));
      }
      csv_rows.push_back(row);
      table.add_row(fields);
    }
    bench::print_table(table);
    bench::print_csv(header, csv_rows);
  }
  bench::print_note(
      "Expected (paper): under even power caps the spread of slowdowns widens as\n"
      "budget drops (EP/BT worst); under even slowdown all types share one curve\n"
      "until low-sensitivity types (IS/SP) level off at the minimum cap.");
  return 0;
}
