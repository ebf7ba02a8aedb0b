// Canonical spec hashing (engine/sweep/spec_canon).
//
// The result cache is only sound if the key is a pure function of the
// *semantics* of a scenario: cosmetic differences (JSON field order,
// float spelling, defaults omitted vs spelled out, display names,
// execution knobs) must hash identically, while any change that could
// alter the RunResult must produce a different key.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "engine/policy_registry.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "util/json.hpp"
#include "workload/schedule.hpp"

namespace anor::engine::sweep {
namespace {

workload::Schedule tiny_schedule() {
  workload::Schedule schedule;
  schedule.duration_s = 120.0;
  workload::JobRequest a;
  a.job_id = 1;
  a.type_name = "bt.D.x";
  a.submit_time_s = 0.0;
  a.nodes = 4;
  workload::JobRequest b;
  b.job_id = 2;
  b.type_name = "lu.D.x";
  b.submit_time_s = 30.0;
  b.nodes = 4;
  schedule.jobs = {a, b};
  return schedule;
}

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.name = "canon-test";
  spec.backend = Backend::kTabular;
  spec.schedule = tiny_schedule();
  spec.policy = PolicyRef("characterized");
  spec.node_count = 8;
  spec.seed = 7;
  return spec;
}

TEST(SpecCanon, JsonFieldOrderCannotChangeTheHash) {
  // The same scenario spelled with different JSON key orders parses to
  // the same spec and must hash identically.
  const char* ordered = R"({
    "name": "x", "backend": "tabular", "policy": "uniform",
    "node_count": 8, "seed": 7,
    "schedule": {"duration_s": 60,
                 "jobs": [{"id": 1, "type": "bt.D.x", "submit_s": 0, "nodes": 4}]}
  })";
  const char* shuffled = R"({
    "seed": 7, "schedule": {"jobs": [{"nodes": 4, "submit_s": 0,
                                      "id": 1, "type": "bt.D.x"}],
                            "duration_s": 60},
    "policy": "uniform", "node_count": 8, "backend": "tabular", "name": "x"
  })";
  const ScenarioSpec a = scenario_spec_from_json(util::Json::parse(ordered));
  const ScenarioSpec b = scenario_spec_from_json(util::Json::parse(shuffled));
  EXPECT_EQ(canonical_spec_hash(a), canonical_spec_hash(b));
  EXPECT_EQ(canonical_spec_string(a), canonical_spec_string(b));
}

TEST(SpecCanon, DefaultsOmittedHashLikeDefaultsSpelledOut) {
  ScenarioSpec omitted = base_spec();
  ScenarioSpec spelled = base_spec();
  // All of these are already the defaults; spelling them out must not
  // change the canonical form.
  spelled.perf_variation_sigma = 0.0;
  spelled.tracking_warmup_s = 0.0;
  spelled.tracking_reserve_w = 0.0;
  for (auto& job : spelled.schedule.jobs) {
    job.classified_as = "";
    job.walltime_hint_s = 0.0;
  }
  EXPECT_EQ(canonical_spec_string(omitted), canonical_spec_string(spelled));
}

TEST(SpecCanon, FloatSpellingCannotChangeTheHash) {
  ScenarioSpec a = base_spec();
  ScenarioSpec b = base_spec();
  a.tracking_warmup_s = 0.0;
  b.tracking_warmup_s = -0.0;  // same value, different bits/spelling
  EXPECT_EQ(canonical_spec_hash(a), canonical_spec_hash(b));

  // An exact double stays exact: 0.1 + 0.2 != 0.3 must DIFFER (they are
  // different doubles), while algebraically-identical spellings agree.
  a.perf_variation_sigma = 0.1 + 0.2;
  b.perf_variation_sigma = 0.3;
  EXPECT_NE(canonical_spec_hash(a), canonical_spec_hash(b));
  b.perf_variation_sigma = 0.1 + 0.2;
  EXPECT_EQ(canonical_spec_hash(a), canonical_spec_hash(b));
}

TEST(SpecCanon, DisplayAndExecutionKnobsAreExcluded) {
  ScenarioSpec a = base_spec();
  ScenarioSpec b = base_spec();
  b.name = "completely-different-name";
  b.artifact_dir = "";  // empty either way; artifact runs bypass the cache
  b.step_workers = 8;  // ignored by every backend
  EXPECT_EQ(canonical_spec_hash(a), canonical_spec_hash(b))
      << "display and execution knobs must not fragment the cache";
}

TEST(SpecCanon, SemanticChangesProduceDistinctKeys) {
  const std::uint64_t reference = canonical_spec_hash(base_spec());

  ScenarioSpec changed = base_spec();
  changed.policy = PolicyRef("uniform");
  EXPECT_NE(canonical_spec_hash(changed), reference) << "policy";

  changed = base_spec();
  changed.seed = 8;
  EXPECT_NE(canonical_spec_hash(changed), reference) << "seed";

  changed = base_spec();
  changed.node_count = 9;
  EXPECT_NE(canonical_spec_hash(changed), reference) << "node_count";

  changed = base_spec();
  changed.backend = Backend::kEmulated;
  EXPECT_NE(canonical_spec_hash(changed), reference) << "backend";

  changed = base_spec();
  changed.static_budget_w = 1200.0;
  EXPECT_NE(canonical_spec_hash(changed), reference) << "static budget";

  changed = base_spec();
  changed.schedule.jobs[0].submit_time_s = 1.0;
  EXPECT_NE(canonical_spec_hash(changed), reference) << "schedule";

  changed = base_spec();
  changed.schedule.jobs[0].classified_as = "is.D.x";
  EXPECT_NE(canonical_spec_hash(changed), reference) << "misclassification";

  changed = base_spec();
  changed.targets.add(0.0, 1000.0);
  changed.targets.add(60.0, 900.0);
  EXPECT_NE(canonical_spec_hash(changed), reference) << "targets";
}

TEST(SpecCanon, ExpressionPolicyIdentityIsFoldedIntoTheKey) {
  // Regression: before the registry refactor the cache key held only the
  // policy *name*, so two custom policies sharing a name but computing
  // different caps would alias to one cache entry.
  ScenarioSpec a = base_spec();
  ScenarioSpec b = base_spec();
  a.policy = PolicyRef("custom", "p_min + 10");
  b.policy = PolicyRef("custom", "p_min + 20");
  EXPECT_NE(canonical_spec_hash(a), canonical_spec_hash(b))
      << "same policy name with different DSL sources must not alias";

  ScenarioSpec c = base_spec();
  c.policy = PolicyRef("custom", "p_min + 10");
  EXPECT_EQ(canonical_spec_hash(a), canonical_spec_hash(c))
      << "identical DSL sources must still share a key";

  // Two different registered names over the same source differ too (the
  // identity is name#hash, not hash alone).
  ScenarioSpec d = base_spec();
  d.policy = PolicyRef("custom2", "p_min + 10");
  EXPECT_NE(canonical_spec_hash(a), canonical_spec_hash(d));
}

TEST(SpecCanon, RegisteredPolicyIdentityDiffersFromUnregisteredName) {
  // A bare non-builtin name resolves through the registry at key time:
  // registering an expression under that name must move the key.
  ScenarioSpec bare = base_spec();
  bare.policy = PolicyRef("canon-reg-expr");
  const std::uint64_t unregistered = canonical_spec_hash(bare);
  PolicyRegistry::global().register_expression_policy("canon-reg-expr", "p_max - 5");
  const std::uint64_t registered = canonical_spec_hash(bare);
  PolicyRegistry::global().unregister("canon-reg-expr");
  EXPECT_NE(unregistered, registered);
}

TEST(SpecCanon, BuiltinCanonicalBytesCarryNoPolicyIdentity) {
  // The four paper policies predate the registry; their canonical form
  // (and therefore every existing on-disk cache entry) must be
  // byte-identical to the enum era.
  const std::string canon = canonical_spec_string(base_spec());
  EXPECT_EQ(canon.find("policy_identity"), std::string::npos)
      << "built-ins must keep their pre-registry canonical bytes";
  EXPECT_NE(canon.find("\"policy\":\"characterized\""), std::string::npos) << canon;

  ScenarioSpec custom = base_spec();
  custom.policy = PolicyRef("custom", "p_min");
  EXPECT_NE(canonical_spec_string(custom).find("policy_identity"), std::string::npos);
}

TEST(SpecCanon, BudgetZeroDiffersFromBudgetUnset) {
  // optional<double>{0.0} and nullopt are different scenarios (a zero
  // budget throttles everything; no budget runs unconstrained).
  ScenarioSpec unset = base_spec();
  ScenarioSpec zero = base_spec();
  zero.static_budget_w = 0.0;
  EXPECT_NE(canonical_spec_hash(unset), canonical_spec_hash(zero));
}

TEST(SpecCanon, LargeSeedsSurviveCanonicalizationExactly) {
  // Seeds above 2^53 cannot round-trip through a double; the canonical
  // form must keep full 64-bit precision.
  ScenarioSpec a = base_spec();
  ScenarioSpec b = base_spec();
  a.seed = (1ULL << 60) + 1;
  b.seed = (1ULL << 60) + 2;
  EXPECT_NE(canonical_spec_hash(a), canonical_spec_hash(b));
}

TEST(SpecCanon, KeyIsStableHexOfTheHash) {
  const ScenarioSpec spec = base_spec();
  const std::string key = canonical_spec_key(spec);
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(key, canonical_spec_key(spec));
  char expect[17];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(canonical_spec_hash(spec)));
  EXPECT_EQ(key, expect);
}

TEST(SpecCanon, EpochIsFoldedIntoTheHash) {
  // The epoch string pins the result-schema version and the golden trace
  // hashes; it must participate in the key so stale caches self-invalidate
  // when either changes.
  const std::string epoch(kCacheEpoch);
  EXPECT_NE(epoch.find("anor.run_result.v1"), std::string::npos);
  EXPECT_NE(epoch.find("b3a442b79219c7d9"), std::string::npos);
  EXPECT_NE(epoch.find("42ce5da3ae89f65c"), std::string::npos);
}

}  // namespace
}  // namespace anor::engine::sweep
