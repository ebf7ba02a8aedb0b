// The four built-in policies as apply_policy configures the emulated
// tier, and the registry queries the runner dispatches on.
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

TEST(Policies, UniformUsesEvenPowerNoFeedback) {
  cluster::EmulationConfig config;
  apply_policy(config, PolicyRef("uniform"));
  EXPECT_EQ(config.manager.budgeter, budget::BudgeterKind::kEvenPower);
  EXPECT_FALSE(config.manager.accept_model_updates);
  EXPECT_FALSE(config.endpoint.feedback_enabled);
  // Built-ins keep the legacy enum dispatch: no factory override.
  EXPECT_FALSE(static_cast<bool>(config.manager.budgeter_factory));
}

TEST(Policies, CharacterizedUsesEvenSlowdownNoFeedback) {
  cluster::EmulationConfig config;
  apply_policy(config, PolicyRef("characterized"));
  EXPECT_EQ(config.manager.budgeter, budget::BudgeterKind::kEvenSlowdown);
  EXPECT_FALSE(config.endpoint.feedback_enabled);
}

TEST(Policies, AdjustedEnablesFullFeedbackPath) {
  cluster::EmulationConfig config;
  apply_policy(config, PolicyRef("adjusted"));
  EXPECT_EQ(config.manager.budgeter, budget::BudgeterKind::kEvenSlowdown);
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
  EXPECT_TRUE(static_cast<bool>(config.manager.budgeter_factory));
  EXPECT_FALSE(config.endpoint.feedback_enabled);
  PolicyRegistry::global().unregister("policies-test-expr");
}

}  // namespace
}  // namespace anor::engine
