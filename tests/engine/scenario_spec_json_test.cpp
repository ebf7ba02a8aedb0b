#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "engine/scenario.hpp"
#include "util/error.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {
namespace {

workload::Schedule small_schedule() {
  workload::Schedule schedule;
  schedule.duration_s = 600.0;
  workload::JobRequest a;
  a.job_id = 1;
  a.type_name = "bt.D.x";
  a.submit_time_s = 10.0;
  a.nodes = 4;
  schedule.jobs.push_back(a);
  workload::JobRequest b;
  b.job_id = 2;
  b.type_name = "lu.D.x";
  b.submit_time_s = 45.0;
  schedule.jobs.push_back(b);
  return schedule;
}

TEST(ScenarioSpecJson, RoundTripPreservesEverything) {
  ScenarioSpec original;
  original.name = "fig9-repro";
  original.backend = Backend::kTabular;
  original.schedule = small_schedule();
  original.policy = PolicyRef("adjusted");
  original.targets.add(0.0, 3000.0);
  original.targets.add(4.0, 3100.0);
  original.targets.add(8.0, 2950.0);
  original.node_count = 64;
  original.perf_variation_sigma = 0.04;
  original.seed = 99;
  original.tracking_warmup_s = 120.0;
  original.tracking_reserve_w = 800.0;
  original.artifact_dir = "/tmp/artifacts";
  original.artifact_cadence_s = 2.0;

  const ScenarioSpec parsed = scenario_spec_from_json(scenario_spec_to_json(original));
  EXPECT_EQ(parsed.name, "fig9-repro");
  EXPECT_EQ(parsed.backend, Backend::kTabular);
  EXPECT_EQ(parsed.policy, PolicyRef("adjusted"));
  ASSERT_EQ(parsed.schedule.jobs.size(), 2u);
  EXPECT_EQ(parsed.schedule.jobs[0].type_name, "bt.D.x");
  EXPECT_EQ(parsed.schedule.jobs[0].nodes, 4);
  EXPECT_DOUBLE_EQ(parsed.schedule.jobs[1].submit_time_s, 45.0);
  EXPECT_FALSE(parsed.static_budget_w.has_value());
  ASSERT_EQ(parsed.targets.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.targets.times()[2], 8.0);
  EXPECT_DOUBLE_EQ(parsed.targets.values()[1], 3100.0);
  EXPECT_EQ(parsed.node_count, 64);
  EXPECT_DOUBLE_EQ(parsed.perf_variation_sigma, 0.04);
  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_DOUBLE_EQ(parsed.tracking_warmup_s, 120.0);
  EXPECT_DOUBLE_EQ(parsed.tracking_reserve_w, 800.0);
  EXPECT_EQ(parsed.artifact_dir, "/tmp/artifacts");
  EXPECT_DOUBLE_EQ(parsed.artifact_cadence_s, 2.0);
}

TEST(ScenarioSpecJson, MisclassificationLabelsSurviveTheRoundTrip) {
  ScenarioSpec original;
  original.schedule = small_schedule();
  original.policy = PolicyRef("misclassified");
  workload::misclassify(original.schedule, "bt.D.x", "is.D.x");

  const ScenarioSpec parsed = scenario_spec_from_json(scenario_spec_to_json(original));
  EXPECT_EQ(parsed.policy, PolicyRef("misclassified"));
  ASSERT_EQ(parsed.schedule.jobs.size(), 2u);
  EXPECT_EQ(parsed.schedule.jobs[0].classified_as, "is.D.x");
  EXPECT_EQ(parsed.schedule.jobs[0].effective_class(), "is.D.x");
  EXPECT_TRUE(parsed.schedule.jobs[1].classified_as.empty());
}

TEST(ScenarioSpecJson, StaticBudgetRoundTripsAndExcludesTargets) {
  ScenarioSpec original;
  original.schedule = small_schedule();
  original.static_budget_w = 2500.0;

  const util::Json json = scenario_spec_to_json(original);
  EXPECT_FALSE(json.contains("targets"));
  const ScenarioSpec parsed = scenario_spec_from_json(json);
  ASSERT_TRUE(parsed.static_budget_w.has_value());
  EXPECT_DOUBLE_EQ(*parsed.static_budget_w, 2500.0);
  EXPECT_TRUE(parsed.targets.empty());
}

TEST(ScenarioSpecJson, BackendSelectorParses) {
  EXPECT_EQ(backend_from_string("emulated"), Backend::kEmulated);
  EXPECT_EQ(backend_from_string("tabular"), Backend::kTabular);
  EXPECT_THROW(backend_from_string("hardware"), util::ConfigError);
  EXPECT_EQ(to_string(Backend::kEmulated), "emulated");
  EXPECT_EQ(to_string(Backend::kTabular), "tabular");
}

TEST(ScenarioSpecJson, DefaultsApplyForMissingKeys) {
  const ScenarioSpec parsed = scenario_spec_from_json(util::Json::parse("{}"));
  const ScenarioSpec defaults;
  EXPECT_EQ(parsed.backend, Backend::kEmulated);
  EXPECT_EQ(parsed.policy, PolicyRef("characterized"));
  EXPECT_EQ(parsed.node_count, defaults.node_count);
  EXPECT_EQ(parsed.seed, 1u);
  EXPECT_TRUE(parsed.schedule.jobs.empty());
  EXPECT_TRUE(parsed.artifact_dir.empty());
}

TEST(ScenarioSpecJson, UnknownPolicyNamesTheAvailableEntries) {
  try {
    policy_from_string("power-yolo");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("power-yolo"), std::string::npos) << what;
    EXPECT_NE(what.find("available"), std::string::npos) << what;
    // The four built-ins are always registered, so the candidate list
    // must mention them.
    EXPECT_NE(what.find("characterized"), std::string::npos) << what;
    EXPECT_NE(what.find("uniform"), std::string::npos) << what;
  }

  // The spec JSON path reports the same error.
  EXPECT_THROW(
      scenario_spec_from_json(util::Json::parse(R"({"policy": "power-yolo"})")),
      util::ConfigError);
}

TEST(ScenarioSpecJson, ExpressionPolicyRoundTripsAsObject) {
  ScenarioSpec original;
  original.schedule = small_schedule();
  original.policy = PolicyRef("json-rt-expr", "clamp(budget_w / total_nodes, p_min, p_max)");

  const util::Json json = scenario_spec_to_json(original);
  // Built-in (and plain named) policies stay plain strings; inline DSL
  // policies serialize as {"name", "expr"} objects.
  EXPECT_TRUE(json.at("policy").is_object());
  const ScenarioSpec parsed = scenario_spec_from_json(json);
  EXPECT_EQ(parsed.policy, original.policy);
  EXPECT_EQ(parsed.policy.dsl, "clamp(budget_w / total_nodes, p_min, p_max)");

  ScenarioSpec builtin;
  builtin.schedule = small_schedule();
  builtin.policy = PolicyRef("uniform");
  EXPECT_TRUE(scenario_spec_to_json(builtin).at("policy").is_string());
}

TEST(ScenarioSpecJson, MalformedExpressionPolicyIsRejectedAtParse) {
  EXPECT_THROW(scenario_spec_from_json(util::Json::parse(
                   R"({"policy": {"name": "bad", "expr": "p_min + "}})")),
               util::ConfigError);
}

TEST(ScenarioSpecJson, ValidateRejectsContradictions) {
  ScenarioSpec both;
  both.schedule = small_schedule();
  both.static_budget_w = 1000.0;
  both.targets.add(0.0, 900.0);
  EXPECT_THROW(both.validate(), util::ConfigError);

  ScenarioSpec empty_tabular;
  empty_tabular.backend = Backend::kTabular;
  EXPECT_THROW(empty_tabular.validate(), util::ConfigError);

  ScenarioSpec bad_nodes;
  bad_nodes.schedule = small_schedule();
  bad_nodes.node_count = 0;
  EXPECT_THROW(bad_nodes.validate(), util::ConfigError);
}

// A negative id used to reach the tabular job table, whose id index cast
// it to SIZE_MAX and wrote out of bounds.
void expect_negative_id_rejected(const std::function<void()>& parse_or_validate) {
  try {
    parse_or_validate();
    ADD_FAILURE() << "a negative job id was accepted";
  } catch (const util::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("job id -1"), std::string::npos) << error.what();
  }
}

TEST(ScenarioSpecJson, NegativeJobIdIsRejected) {
  for (Backend backend : {Backend::kTabular, Backend::kEmulated}) {
    ScenarioSpec spec;
    spec.backend = backend;
    spec.schedule = small_schedule();
    spec.schedule.jobs[1].job_id = -1;
    expect_negative_id_rejected([&spec] { spec.validate(); });
  }
  expect_negative_id_rejected([] {
    scenario_spec_from_json(util::Json::parse(R"({
      "backend": "tabular", "node_count": 8,
      "schedule": {"duration_s": 60, "jobs": [
        {"id": 0, "type": "bt.D.x", "submit_s": 0, "nodes": 1},
        {"id": -1, "type": "lu.D.x", "submit_s": 5, "nodes": 1}]}})"));
  });
}

// A repeated id used to pass validation: the tabular backend then lost
// one of the two jobs (2 of 3 completed) while the emulated one ran all 3.
void expect_duplicate_id_rejected(const std::function<void()>& parse_or_validate, int id) {
  try {
    parse_or_validate();
    ADD_FAILURE() << "a repeated job id was accepted";
  } catch (const util::ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("job id " + std::to_string(id) + " appears"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioSpecJson, DuplicateJobIdIsRejected) {
  expect_duplicate_id_rejected([] {
    scenario_spec_from_json(util::Json::parse(R"({
      "backend": "tabular", "node_count": 2,
      "schedule": {"duration_s": 60, "jobs": [
        {"id": 9, "type": "cg.D.x", "submit_s": 0, "nodes": 2},
        {"id": 1, "type": "cg.D.x", "submit_s": 1, "nodes": 1},
        {"id": 1, "type": "mg.D.x", "submit_s": 2, "nodes": 1}]}})"));
  }, 1);
  for (Backend backend : {Backend::kTabular, Backend::kEmulated}) {
    ScenarioSpec spec;
    spec.backend = backend;
    spec.schedule = small_schedule();
    spec.schedule.jobs[1].job_id = spec.schedule.jobs[0].job_id;
    expect_duplicate_id_rejected([&spec] { spec.validate(); }, 1);
    // Ids far apart take the sorted-copy path instead of the flat array.
    spec.schedule.jobs[0].job_id = 2'000'000'000;
    spec.schedule.jobs[1].job_id = 2'000'000'000;
    expect_duplicate_id_rejected([&spec] { spec.validate(); }, 2'000'000'000);
    spec.schedule.jobs[1].job_id = 7;
    EXPECT_NO_THROW(spec.validate());
  }
}

}  // namespace
}  // namespace anor::engine
