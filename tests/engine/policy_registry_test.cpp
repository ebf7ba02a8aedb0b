// Policy registry (engine/policy_registry.hpp): registration semantics,
// lookup errors, identity, and race-freedom of concurrent dispatch.
#include "engine/policy_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "engine/runner.hpp"
#include "util/error.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {
namespace {

TEST(PolicyRegistry, BuiltinsAreAlwaysPresent) {
  PolicyRegistry& registry = PolicyRegistry::global();
  for (const std::string& name : PolicyRegistry::builtin_names()) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const PolicyDescriptor d = registry.get(name);
    EXPECT_TRUE(d.builtin);
    EXPECT_EQ(d.identity(), name) << "builtin identity is the bare name";
    EXPECT_EQ(d.budgeter_factory()->name(), name == "uniform" ? "even-power" : "even-slowdown");
    EXPECT_TRUE(registry.is_admitted(name)) << "builtins bypass admission";
  }
  const std::vector<std::string> names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PolicyRegistry, UnknownLookupNamesTheAvailableEntries) {
  try {
    PolicyRegistry::global().get("no-such-policy");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos) << what;
    EXPECT_NE(what.find("adjusted"), std::string::npos) << what;
    EXPECT_NE(what.find("uniform"), std::string::npos) << what;
  }
}

TEST(PolicyRegistry, ReRegistrationIsIdempotentButConflictsThrow) {
  PolicyRegistry& registry = PolicyRegistry::global();
  registry.register_expression_policy("reg-test-a", "p_min + 1");
  // Same definition again: fine (specs with inline DSL resolve repeatedly).
  EXPECT_NO_THROW(registry.register_expression_policy("reg-test-a", "p_min + 1"));
  // Different definition under the same name: refused.
  EXPECT_THROW(registry.register_expression_policy("reg-test-a", "p_min + 2"),
               util::ConfigError);
  registry.unregister("reg-test-a");
  // After unregistering, the name is free again.
  EXPECT_NO_THROW(registry.register_expression_policy("reg-test-a", "p_min + 2"));
  registry.unregister("reg-test-a");
}

TEST(PolicyRegistry, BuiltinNamesAreProtected) {
  PolicyRegistry& registry = PolicyRegistry::global();
  EXPECT_THROW(registry.register_expression_policy("uniform", "p_min"),
               util::ConfigError);
  EXPECT_THROW(registry.unregister("adjusted"), util::ConfigError);
}

TEST(PolicyRegistry, ExpressionIdentityFoldsTheSourceHash) {
  PolicyRegistry& registry = PolicyRegistry::global();
  registry.register_expression_policy("reg-test-id", "p_min + 1");
  const std::string identity = registry.get("reg-test-id").identity();
  registry.unregister("reg-test-id");
  registry.register_expression_policy("reg-test-id", "p_min + 2");
  const std::string other = registry.get("reg-test-id").identity();
  registry.unregister("reg-test-id");
  EXPECT_NE(identity, other);
  EXPECT_EQ(identity.rfind("reg-test-id#", 0), 0u) << identity;
}

TEST(PolicyRegistry, AdmissionIsPerIdentity) {
  PolicyRegistry& registry = PolicyRegistry::global();
  registry.register_expression_policy("reg-test-adm", "p_min + 1");
  EXPECT_FALSE(registry.is_admitted("reg-test-adm"));
  registry.mark_admitted("reg-test-adm");
  EXPECT_TRUE(registry.is_admitted("reg-test-adm"));
  // Re-registering a different definition resets the admission.
  registry.unregister("reg-test-adm");
  registry.register_expression_policy("reg-test-adm", "p_min + 2");
  EXPECT_FALSE(registry.is_admitted("reg-test-adm"));
  registry.unregister("reg-test-adm");
}

TEST(PolicyRegistry, InlineDslRefsResolveAndAutoRegister) {
  const PolicyRef ref("reg-test-inline", "clamp(fair_w, p_min, p_max)");
  const PolicyDescriptor d = resolve_policy(ref);
  EXPECT_EQ(d.dsl_source, ref.dsl);
  EXPECT_EQ(d.budgeter_factory()->name(), ref.name);
  // Resolving again is the idempotent path.
  EXPECT_NO_THROW(resolve_policy(ref));
  PolicyRegistry::global().unregister("reg-test-inline");
}

ScenarioSpec tiny_spec(const std::string& policy, std::uint64_t seed) {
  workload::PoissonScheduleConfig config;
  config.duration_s = 240.0;
  config.utilization = 0.7;
  config.cluster_nodes = 4;
  ScenarioSpec spec;
  spec.name = "registry-race";
  spec.backend = Backend::kTabular;
  spec.schedule = workload::generate_poisson_schedule(workload::nas_long_job_types(),
                                                      config, util::Rng(seed));
  spec.policy = PolicyRef(policy);
  spec.static_budget_w = 165.0 * 4;
  spec.node_count = 4;
  spec.seed = seed;
  return spec;
}

TEST(PolicyRegistry, ConcurrentDispatchDuringRegistrationIsRaceFree) {
  // TSan coverage target (check_tier1.sh): concurrent run_scenario calls
  // resolving built-ins while other threads mutate the registry with
  // distinct custom names must not race.
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([i] {
      const std::string policy = (i % 2 == 0) ? "characterized" : "uniform";
      const RunResult result = run_scenario(tiny_spec(policy, 11 + i));
      EXPECT_GT(result.jobs_completed, 0);
    });
  }
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([i] {
      const std::string name = "race-policy-" + std::to_string(i);
      for (int round = 0; round < 25; ++round) {
        PolicyRegistry::global().register_expression_policy(name, "p_min + 1");
        (void)PolicyRegistry::global().get(name);
        (void)PolicyRegistry::global().names();
        PolicyRegistry::global().unregister(name);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace anor::engine
