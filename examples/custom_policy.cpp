// Custom policy: register an expression-DSL power policy, prove it through
// the admission harness, and sweep it against the paper's characterized
// baseline on the tabular backend.
//
//   $ ./custom_policy
//
// The registry makes the policy set open: anything that can compute a
// per-node cap from the fitted T = A·P² + B·P + C model terms and the
// budgeting context can ride the same two-backend engine as the four
// paper policies — once it passes the same gates they are held to.
#include <iostream>

#include "engine/policy_admission.hpp"
#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"
#include "util/table.hpp"

int main() {
  using namespace anor;

  // 1. Register the policy.  "Fair share": every node gets an equal slice
  //    of the cluster budget, clamped into the job's achievable cap range.
  //    (This is close to, but not the same as, the uniform policy — the
  //    slice ignores each job's power sensitivity entirely.)
  engine::PolicyRegistry::global().register_expression_policy(
      "dsl-fairshare", "clamp(budget_w / total_nodes, p_min, p_max)",
      "equal per-node budget slice, clamped to the envelope");

  // 2. Admit it.  Non-built-in policies must pass the admission harness —
  //    budget-envelope sanity, tabular determinism, cross-backend parity,
  //    chaos determinism — before run_scenario will dispatch them.
  engine::AdmissionOptions options;
  options.duration_s = 360.0;
  options.node_count = 4;
  options.chaos_duration_s = 120.0;
  options.chaos_node_count = 4;
  const engine::AdmissionReport report =
      engine::admit_policy("dsl-fairshare", options);
  std::cout << report.describe();
  if (!report.passed()) {
    std::cerr << "dsl-fairshare failed admission\n";
    return 1;
  }

  // 3. Compare it against the characterized baseline on one generated
  //    scenario: same schedule, same budget, both backends' cheap one.
  workload::PoissonScheduleConfig schedule_config;
  schedule_config.duration_s = 900.0;
  schedule_config.utilization = 0.8;
  schedule_config.cluster_nodes = 8;
  const workload::Schedule schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), schedule_config, util::Rng(7));

  util::TextTable table({"policy", "mean slowdown", "p90 tracking", "qos"});
  for (const std::string name : {"characterized", "dsl-fairshare"}) {
    engine::ScenarioSpec spec;
    spec.name = name;
    spec.backend = engine::Backend::kTabular;
    spec.schedule = schedule;
    spec.policy = engine::PolicyRef(name);
    spec.static_budget_w = 8 * 165.0;
    spec.tracking_reserve_w = *spec.static_budget_w;
    spec.node_count = 8;
    spec.seed = 7;
    const engine::RunResult result = engine::run_scenario(spec);
    util::RunningStats slowdowns;
    for (const auto& job : result.completed) slowdowns.add(job.slowdown());
    table.add_row({name, util::TextTable::format_percent(slowdowns.mean()),
                   util::TextTable::format_percent(result.tracking.p90_error),
                   result.qos.satisfied() ? "ok" : "violated"});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nthe model-aware characterized policy should slow jobs less for "
               "the same budget.\n";
  return 0;
}
