// Admission harness (engine/policy_admission.hpp): well-formed expression
// policies get in, non-deterministic ones are rejected, built-ins bypass
// the harness entirely, and the gate is enforced at run_scenario.
#include "engine/policy_admission.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "budget/one_cap_short_budgeter.hpp"
#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"
#include "util/error.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {
namespace {

/// Cheap options for unit tests: small scenario, no chaos stage unless a
/// test opts in.
AdmissionOptions quick_options() {
  AdmissionOptions options;
  options.duration_s = 300.0;
  options.node_count = 4;
  options.chaos_gate = false;
  return options;
}

TEST(PolicyAdmission, BuiltinsBypassTheHarness) {
  for (const std::string& name : PolicyRegistry::builtin_names()) {
    const AdmissionReport report = admit_policy(PolicyRef(name));
    EXPECT_TRUE(report.passed()) << report.describe();
    ASSERT_EQ(report.checks.size(), 1u);
    EXPECT_EQ(report.checks[0].name, "builtin");
  }
}

TEST(PolicyAdmission, NoisyPolicyIsRejectedByTheDeterminismGates) {
  PolicyRegistry::global().register_expression_policy(
      "adm-test-noisy", "clamp(fair_w + noise(), p_min, p_max)");
  const AdmissionReport report =
      run_admission(PolicyRef("adm-test-noisy"), quick_options());
  EXPECT_FALSE(report.passed()) << report.describe();
  // The cheap envelope repeat-check catches the nondeterminism first.
  ASSERT_FALSE(report.checks.empty());
  EXPECT_EQ(report.checks[0].name, "budget-envelope");
  EXPECT_FALSE(report.checks[0].passed) << report.checks[0].detail;
  EXPECT_FALSE(PolicyRegistry::global().is_admitted("adm-test-noisy"));
  PolicyRegistry::global().unregister("adm-test-noisy");
}

TEST(PolicyAdmission, ShortCapVectorFailsTheEnvelopeGate) {
  PolicyDescriptor descriptor;
  descriptor.name = "adm-test-one-cap-short";
  descriptor.budgeter_factory = [] { return std::make_unique<budget::OneCapShortBudgeter>(); };
  PolicyRegistry::global().register_policy(descriptor);
  const AdmissionReport report =
      run_admission(PolicyRef("adm-test-one-cap-short"), quick_options());
  EXPECT_FALSE(report.passed()) << report.describe();
  ASSERT_FALSE(report.checks.empty());
  EXPECT_EQ(report.checks[0].name, "budget-envelope");
  EXPECT_NE(report.checks[0].detail.find("'one-cap-short' returned 5 caps for 6 jobs"),
            std::string::npos)
      << report.checks[0].detail;
  PolicyRegistry::global().unregister("adm-test-one-cap-short");
}

TEST(PolicyAdmission, RunScenarioRefusesUnadmittedPolicies) {
  PolicyRegistry::global().register_expression_policy(
      "adm-test-noisy-run", "fair_w * noise()");
  workload::PoissonScheduleConfig config;
  config.duration_s = 240.0;
  config.utilization = 0.7;
  config.cluster_nodes = 4;
  ScenarioSpec spec;
  spec.backend = Backend::kTabular;
  spec.schedule = workload::generate_poisson_schedule(workload::nas_long_job_types(),
                                                      config, util::Rng(5));
  spec.policy = PolicyRef("adm-test-noisy-run");
  spec.static_budget_w = 4 * 165.0;
  spec.node_count = 4;
  spec.seed = 5;
  try {
    run_scenario(spec);
    FAIL() << "expected ConfigError from the admission gate";
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("adm-test-noisy-run"), std::string::npos) << what;
    EXPECT_NE(what.find("admission"), std::string::npos) << what;
  }
  PolicyRegistry::global().unregister("adm-test-noisy-run");
}

TEST(PolicyAdmission, FairSharePolicyPassesTheFullHarness) {
  // The walkthrough policy (README / check_tier1.sh): per-node fair share
  // of the budget, clamped into the achievable envelope.  Runs the whole
  // harness including cross-backend parity and the chaos gate.
  PolicyRegistry::global().register_expression_policy(
      "adm-test-fairshare", "clamp(budget_w / total_nodes, p_min, p_max)");
  AdmissionOptions options;
  options.duration_s = 360.0;
  options.node_count = 4;
  options.chaos_duration_s = 120.0;
  options.chaos_node_count = 4;
  const AdmissionReport report =
      admit_policy(PolicyRef("adm-test-fairshare"), options);
  EXPECT_TRUE(report.passed()) << report.describe();
  EXPECT_TRUE(PolicyRegistry::global().is_admitted("adm-test-fairshare"));

  // Once admitted, run_scenario dispatches it without re-running the
  // harness (and the run completes).
  workload::PoissonScheduleConfig config;
  config.duration_s = 240.0;
  config.utilization = 0.7;
  config.cluster_nodes = 4;
  ScenarioSpec spec;
  spec.backend = Backend::kTabular;
  spec.schedule = workload::generate_poisson_schedule(workload::nas_long_job_types(),
                                                      config, util::Rng(5));
  spec.policy = PolicyRef("adm-test-fairshare");
  spec.static_budget_w = 4 * 165.0;
  spec.node_count = 4;
  spec.seed = 5;
  const RunResult result = run_scenario(spec);
  EXPECT_GT(result.jobs_completed, 0);
  PolicyRegistry::global().unregister("adm-test-fairshare");
}

TEST(PolicyAdmission, ReportListsEveryGateInOrder) {
  PolicyRegistry::global().register_expression_policy("adm-test-report", "fair_w");
  AdmissionOptions options;
  options.duration_s = 300.0;
  options.node_count = 4;
  options.chaos_duration_s = 120.0;
  options.chaos_node_count = 4;
  const AdmissionReport report = run_admission(PolicyRef("adm-test-report"), options);
  ASSERT_EQ(report.checks.size(), 4u) << report.describe();
  EXPECT_EQ(report.checks[0].name, "budget-envelope");
  EXPECT_EQ(report.checks[1].name, "tabular-determinism");
  EXPECT_EQ(report.checks[2].name, "cross-backend-parity");
  EXPECT_EQ(report.checks[3].name, "chaos-determinism");
  EXPECT_TRUE(report.passed()) << report.describe();
  // run_admission is pure measurement: no admission state was touched.
  EXPECT_FALSE(PolicyRegistry::global().is_admitted("adm-test-report"));
  PolicyRegistry::global().unregister("adm-test-report");
}

}  // namespace
}  // namespace anor::engine
