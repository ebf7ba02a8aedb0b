// Quickstart: run two NPB-like jobs on an emulated 4-node cluster under a
// static cluster power budget with the performance-aware policy, and print
// their GEOPM-style reports.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the ANOR framework: build a
// schedule, pick a policy and a power objective, run, inspect results.
#include <iostream>

#include "engine/runner.hpp"
#include "util/table.hpp"

int main() {
  using namespace anor;

  // 1. Describe the work: one BT (power-sensitive) and one SP (not) job,
  //    both submitted at t=0, two nodes each.
  engine::ScenarioSpec spec;
  spec.node_count = 4;
  spec.schedule.jobs = {
      {0, "bt.D.x", 0.0, 2, ""},
      {1, "sp.D.x", 0.0, 2, ""},
  };
  spec.schedule.duration_s = 1.0;

  // 2. Pick the power objective: a static cluster budget at 75 % of TDP.
  spec.static_budget_w = 4 * 0.75 * workload::kNodeTdpW;

  // 3. Pick the policy: the performance-aware even-slowdown budgeter with
  //    correct precharacterized models.
  spec.policy = "characterized";

  // 4. Run.  The full two-tier stack executes: a cluster manager budgets
  //    power, per-job endpoints model performance, GEOPM-like agents
  //    enforce caps through emulated RAPL registers.  Setting
  //    spec.backend = engine::Backend::kTabular runs the same scenario on
  //    the tabular simulator instead.
  const engine::RunResult result = engine::run_scenario(spec);

  // 5. Inspect.
  std::cout << "completed " << result.completed.size() << " jobs in "
            << result.end_time_s << " virtual seconds\n\n";
  for (const auto& job : result.completed) {
    std::cout << job.report.to_text() << "    slowdown vs uncapped: "
              << util::TextTable::format_percent(job.slowdown()) << "\n\n";
  }
  std::cout << "cluster energy: " << result.power_w.mean() * result.end_time_s / 1000.0
            << " kJ (mean power " << result.power_w.mean() << " W)\n";
  return 0;
}
