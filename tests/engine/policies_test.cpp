// The four built-in policies as apply_policy configures the backends,
// and the registry queries the runner dispatches on.
#include <gtest/gtest.h>

#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"
#include "util/error.hpp"

namespace anor::engine {
namespace {

TEST(Policies, Names) {
  EXPECT_EQ(to_string(PolicyRef("uniform")), "uniform");
  EXPECT_EQ(to_string(PolicyRef("characterized")), "characterized");
  EXPECT_EQ(to_string(PolicyRef("misclassified")), "misclassified");
  EXPECT_EQ(to_string(PolicyRef("adjusted")), "adjusted");
  EXPECT_EQ(policy_from_string("adjusted"), PolicyRef("adjusted"));
  EXPECT_THROW(policy_from_string("not-a-policy"), util::ConfigError);
}

/// The name of the budgeter a config's factory builds.
std::string budgeter_name(const budget::BudgeterFactory& factory) { return factory()->name(); }

TEST(Policies, UniformUsesEvenPowerNoFeedback) {
  cluster::EmulationConfig config;
  apply_policy(config, PolicyRef("uniform"));
  EXPECT_EQ(budgeter_name(config.manager.budgeter_factory), "even-power");
  EXPECT_FALSE(config.manager.accept_model_updates);
  EXPECT_FALSE(config.endpoint.feedback_enabled);
  sim::SimConfig tabular;
  apply_policy(tabular, PolicyRef("uniform"));
  EXPECT_EQ(budgeter_name(tabular.budgeter_factory), "even-power");
}

TEST(Policies, CharacterizedUsesEvenSlowdownNoFeedback) {
  cluster::EmulationConfig config;
  config.manager.budgeter_factory = budget::even_power_factory();
  apply_policy(config, PolicyRef("characterized"));
  EXPECT_EQ(budgeter_name(config.manager.budgeter_factory), "even-slowdown");
  EXPECT_FALSE(config.endpoint.feedback_enabled);
}

TEST(Policies, AdjustedEnablesFullFeedbackPath) {
  cluster::EmulationConfig config;
  apply_policy(config, PolicyRef("adjusted"));
  EXPECT_EQ(budgeter_name(config.manager.budgeter_factory), "even-slowdown");
  EXPECT_TRUE(config.manager.accept_model_updates);
  EXPECT_TRUE(config.endpoint.feedback_enabled);
}

TEST(Policies, MisclassificationExpectation) {
  EXPECT_FALSE(expects_misclassification(PolicyRef("uniform")));
  EXPECT_FALSE(expects_misclassification(PolicyRef("characterized")));
  EXPECT_TRUE(expects_misclassification(PolicyRef("misclassified")));
  EXPECT_TRUE(expects_misclassification(PolicyRef("adjusted")));
}

TEST(Policies, ExpressionPolicyGetsACustomBudgeterFactory) {
  PolicyRegistry::global().register_expression_policy(
      "policies-test-expr", "clamp(budget_w / total_nodes, p_min, p_max)");
  cluster::EmulationConfig config;
  apply_policy(config, PolicyRef("policies-test-expr"));
  // An ExpressionBudgeter carries the policy's name.
  EXPECT_EQ(budgeter_name(config.manager.budgeter_factory), "policies-test-expr");
  EXPECT_FALSE(config.endpoint.feedback_enabled);
  PolicyRegistry::global().unregister("policies-test-expr");
}

}  // namespace
}  // namespace anor::engine
