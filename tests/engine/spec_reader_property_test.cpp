// The scenario-spec and sweep-grid readers on hostile input.  Fixed cases
// pin the integer range checks; a seeded property test mutates a valid
// anor.scenario.v1 document and valid anor.sweep.v1 grids (keys dropped
// or duplicated, value types swapped, numbers out of range or
// non-integral, arrays truncated) and holds every mutant to one rule: it
// parses into specs that round-trip through scenario_spec_to_json, or it
// throws util::ConfigError.  tools/check_tier1.sh runs the suite under
// ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/sweep.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {
namespace {

/// The ConfigError message `parse` throws, or "" when it throws nothing.
template <class Parse>
std::string config_error(Parse parse) {
  try {
    parse();
  } catch (const util::ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecReader, OutOfRangeScheduleFieldsAreRejected) {
  // A narrowing cast would run this as job 1 on 2 nodes.
  const std::string spec = R"({
    "schema": "anor.scenario.v1", "backend": "tabular", "node_count": 8,
    "policy": "characterized", "static_budget_w": 1200,
    "schedule": {"duration_s": 600,
                 "jobs": [{"id": 4294967297, "nodes": 4294967298,
                           "type": "bt.D.x", "submit_s": 0}]}})";
  const std::string error =
      config_error([&] { (void)scenario_spec_from_json(util::Json::parse(spec)); });
  EXPECT_NE(error.find("'id'"), std::string::npos) << error;

  const std::string nodes = R"({"duration_s": 600, "jobs": [
      {"id": 1, "nodes": 2.5, "type": "bt.D.x", "submit_s": 0}]})";
  EXPECT_NE(config_error([&] { (void)workload::Schedule::from_json(util::Json::parse(nodes)); })
                .find("'nodes'"),
            std::string::npos);
}

TEST(SpecReader, OutOfRangeGridAxisIsRejected) {
  // A narrowing cast would run an 8-node cluster labelled
  // node_count=4.29497e+09.
  const std::string grid = R"({
    "schema": "anor.sweep.v1", "name": "range",
    "base": {"backend": "tabular", "node_count": 8, "seed": 7},
    "generate": {"duration_s": 120, "signal": "budget", "utilization": 0.6},
    "axes": [{"field": "node_count", "values": [4294967304]}]})";
  const std::string error =
      config_error([&] { (void)sweep::SweepGrid::from_json(util::Json::parse(grid)); });
  EXPECT_NE(error.find("'node_count'"), std::string::npos) << error;
}

TEST(SpecReader, BaseIntegersMustBeIntegralAndInRange) {
  for (const char* base : {R"("node_count": 2.5)", R"("node_count": 1e12)",
                           R"("seed": -1)", R"("seed": 1e20)", R"("seed": "7")"}) {
    const std::string grid = std::string(R"({"schema": "anor.sweep.v1", "base": {)") + base +
                             R"(}, "generate": {"duration_s": 120}})";
    const std::string spec = std::string(R"({"backend": "emulated", )") + base + "}";
    EXPECT_FALSE(
        config_error([&] { (void)sweep::SweepGrid::from_json(util::Json::parse(grid)); })
            .empty())
        << base;
    EXPECT_FALSE(config_error([&] { (void)scenario_spec_from_json(util::Json::parse(spec)); })
                     .empty())
        << base;
  }
}

/// Spec JSON text for an 8-node cluster on `backend` running a 2-node
/// cg.D.x job and job 7, a bt.D.x asking for `nodes` nodes.
std::string one_job_spec(const char* backend, int nodes) {
  return std::string(R"({"schema": "anor.scenario.v1", "backend": ")") + backend +
         R"(", "node_count": 8, "policy": "characterized", "static_budget_w": 1600,
             "schedule": {"duration_s": 600, "jobs": [
               {"id": 0, "nodes": 2, "type": "cg.D.x", "submit_s": 0},
               {"id": 7, "nodes": )" +
         std::to_string(nodes) + R"(, "type": "bt.D.x", "submit_s": 0}]}})";
}

TEST(SpecReader, JobNodeCountsAreCheckedAgainstTheCluster) {
  // 1..node_count nodes pass.  A negative count used to run as a
  // completed job, and a job wider than the cluster never started and was
  // left out of the report, on both backends: each must fail validation,
  // naming the job.
  for (const char* backend : {"tabular", "emulated"}) {
    for (const int nodes : {1, 2, 8}) {
      const util::Json json = util::Json::parse(one_job_spec(backend, nodes));
      EXPECT_NO_THROW((void)scenario_spec_from_json(json)) << backend << " nodes=" << nodes;
    }
    for (const int nodes : {-1, 9, 100}) {
      const util::Json json = util::Json::parse(one_job_spec(backend, nodes));
      const std::string read_error =
          config_error([&] { (void)scenario_spec_from_json(json); });
      EXPECT_NE(read_error.find("job id 7"), std::string::npos)
          << backend << " nodes=" << nodes << ": " << read_error;

      // The same spec built in code fails in run_scenario before running.
      ScenarioSpec spec;
      spec.backend = backend_from_string(backend);
      spec.node_count = 8;
      spec.static_budget_w = 1600.0;
      spec.schedule = workload::Schedule::from_json(json.at("schedule"));
      const std::string run_error = config_error([&] { (void)run_scenario(spec); });
      EXPECT_NE(run_error.find("job id 7"), std::string::npos)
          << backend << " nodes=" << nodes << ": " << run_error;
    }
  }
}

TEST(SpecReader, ZeroNodesMeansTheTypeDefault) {
  // bt.D.x runs on 2 nodes by default: it fits 2 nodes, not 1.
  ScenarioSpec spec;
  spec.node_count = 2;
  workload::JobRequest job;
  job.job_id = 3;
  job.type_name = "bt.D.x";
  spec.schedule.jobs.push_back(job);
  EXPECT_NO_THROW(spec.validate());
  spec.node_count = 1;
  const std::string error = config_error([&] { spec.validate(); });
  EXPECT_NE(error.find("job id 3 needs 2 nodes"), std::string::npos) << error;
}

TEST(SpecReader, TargetsCodecRejectsBackwardTimesAndRaggedArrays) {
  // The one {"t_s", "power_w"} reader behind both `anorctl run --targets`
  // and a spec's `targets` block.
  const auto read = [](const char* text) {
    return config_error(
        [&] { (void)workload::power_targets_from_json(util::Json::parse(text)); });
  };
  EXPECT_NE(read(R"({"t_s": [0, 8, 4], "power_w": [1, 2, 3]})").find("non-decreasing"),
            std::string::npos);
  EXPECT_NE(read(R"({"t_s": [0, 4], "power_w": [1, 2, 3]})").find("size mismatch"),
            std::string::npos);
  EXPECT_FALSE(read(R"({"t_s": [0, 4]})").empty());
  EXPECT_FALSE(read(R"({"t_s": [0, "4"], "power_w": [1, 2]})").empty());

  const std::string spec = R"({"backend": "emulated", "node_count": 8,
      "targets": {"t_s": [0, 8, 4], "power_w": [1, 2, 3]}})";
  EXPECT_NE(config_error([&] { (void)scenario_spec_from_json(util::Json::parse(spec)); })
                .find("non-decreasing"),
            std::string::npos);
}

// --- the property ------------------------------------------------------

/// A valid tabular scenario: three jobs (one labelled as another type,
/// one with a walltime hint) tracking a short target series.
ScenarioSpec valid_spec() {
  ScenarioSpec spec;
  spec.name = "property";
  spec.backend = Backend::kTabular;
  spec.policy = PolicyRef("characterized");
  spec.node_count = 8;
  spec.seed = 7;
  spec.perf_variation_sigma = 0.05;
  spec.tracking_warmup_s = 60.0;
  spec.tracking_reserve_w = 90.0;
  spec.schedule.duration_s = 600.0;
  const auto job = [](int id, const char* type, double submit_s, int nodes) {
    workload::JobRequest request;
    request.job_id = id;
    request.type_name = type;
    request.submit_time_s = submit_s;
    request.nodes = nodes;
    return request;
  };
  spec.schedule.jobs = {job(0, "bt.D.x", 0.0, 2), job(1, "sp.D.x", 10.0, 4),
                        job(5, "ft.D.x", 30.5, 1)};
  spec.schedule.jobs[1].classified_as = "is.D.x";
  spec.schedule.jobs[1].walltime_hint_s = 300.0;
  spec.targets.add(0.0, 1200.0);
  spec.targets.add(300.0, 1100.0);
  spec.targets.add(600.0, 1250.0);
  return spec;
}

util::Json axis(const char* field, util::JsonArray values) {
  util::JsonObject obj;
  obj["field"] = util::Json(field);
  obj["values"] = util::Json(std::move(values));
  return util::Json(std::move(obj));
}

/// A valid grid over valid_spec() with a static budget and no `generate`
/// block, so materializing a cell builds no schedule: 16 cells.
util::Json valid_grid() {
  ScenarioSpec base = valid_spec();
  base.targets.clear();
  base.static_budget_w = 1200.0;
  util::JsonObject grid;
  grid["schema"] = util::Json("anor.sweep.v1");
  grid["name"] = util::Json("property");
  grid["base"] = scenario_spec_to_json(base);
  grid["axes"] = util::Json(util::JsonArray{
      axis("policy", {util::Json("uniform"), util::Json("characterized")}),
      axis("node_count", {util::Json(8), util::Json(16)}),
      axis("seed", {util::Json(3), util::Json(4)}),
      axis("static_budget_w", {util::Json(), util::Json(1500.0)})});
  return util::Json(std::move(grid));
}

/// A valid grid whose cells generate their schedules.  Its mutants are
/// only parsed: a mutated node count or duration would make materializing
/// a cell generate an arbitrarily large schedule.
util::Json valid_generating_grid() {
  return util::Json::parse(R"({
    "schema": "anor.sweep.v1", "name": "generating",
    "base": {"backend": "tabular", "node_count": 32, "seed": 7,
             "perf_variation_sigma": 0.02, "tracking_warmup_s": 30},
    "generate": {"duration_s": 120, "signal": "budget", "utilization": 0.6,
                 "long_types_only": true, "budget_per_node_w": 170,
                 "misclassify": "bt.D.x=is.D.x"},
    "axes": [{"field": "policy", "values": ["uniform", "misclassified"]},
             {"field": "utilization", "values": [0.5, 0.8]},
             {"field": "signal", "values": ["budget", "dr"]},
             {"field": "duration_s", "values": [60, 120]}]})");
}

/// Every node of the tree, the root first.
void collect(util::Json& node, std::vector<util::Json*>& out) {
  out.push_back(&node);
  if (node.is_object()) {
    for (auto& [key, value] : node.as_object()) collect(value, out);
  } else if (node.is_array()) {
    for (util::Json& value : node.as_array()) collect(value, out);
  }
}

/// Integers at and past the edges of int and std::uint64_t, non-integral
/// values and extremes.
double hostile_number(util::Rng& rng, double original) {
  static const double kNumbers[] = {2147483647.0,  2147483648.0,  -2147483648.0,
                                    -2147483649.0, 4294967297.0,  4294967304.0,
                                    -1.0,          0.0,           -0.0,
                                    2.5,           -0.5,          9.3e18,
                                    -9.3e18,       1e19,          18446744073709549568.0,
                                    18446744073709551616.0,       1e300,
                                    -1e300,        5e-324};
  switch (rng.uniform_int(0, 3)) {
    case 0: return original + 0.5;
    case 1: return original * 4294967296.0;
    default: return kNumbers[rng.uniform_int(0, std::size(kNumbers) - 1)];
  }
}

/// A value of a random type, for swaps and duplicated keys.
util::Json random_value(util::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return util::Json();
    case 1: return util::Json(rng.uniform_int(0, 1) == 1);
    case 2: return util::Json(hostile_number(rng, 1.0));
    case 3: return util::Json(static_cast<double>(rng.uniform_int(-3, 40)));
    case 4: return util::Json("bt.D.x");
    case 5: return util::Json("");
    case 6: return util::Json(util::JsonArray{util::Json(1), util::Json("a")});
    default: {
      util::JsonObject obj;
      obj["name"] = util::Json("uniform");
      return util::Json(std::move(obj));
    }
  }
}

/// A member to print twice: the printed text carries `key` a second time
/// with `value`, before or after the original.  Json::parse keeps the
/// first.
struct DuplicateKey {
  const util::Json* object = nullptr;
  std::string key;
  util::Json value;
  bool first = false;
};

void emit(const util::Json& node, const DuplicateKey& dup, std::string& out) {
  if (node.is_object()) {
    out += '{';
    bool comma = false;
    const auto member = [&](const std::string& key, const util::Json& value) {
      if (comma) out += ',';
      comma = true;
      util::append_json_string(out, key);
      out += ':';
      emit(value, dup, out);
    };
    for (const auto& [key, value] : node.as_object()) {
      const bool twin = &node == dup.object && key == dup.key;
      if (twin && dup.first) member(key, dup.value);
      member(key, value);
      if (twin && !dup.first) member(key, dup.value);
    }
    out += '}';
  } else if (node.is_array()) {
    out += '[';
    for (std::size_t i = 0; i < node.as_array().size(); ++i) {
      if (i > 0) out += ',';
      emit(node.as_array()[i], dup, out);
    }
    out += ']';
  } else {
    out += node.dump();
  }
}

/// `doc` after one to three random mutations, as JSON text.
std::string mutate(util::Json doc, util::Rng& rng) {
  DuplicateKey dup;
  const auto mutations = rng.uniform_int(1, 3);
  for (std::int64_t m = 0; m < mutations; ++m) {
    std::vector<util::Json*> nodes;
    collect(doc, nodes);
    std::vector<util::Json*> objects, arrays, numbers;
    for (util::Json* node : nodes) {
      if (node->is_object() && !node->as_object().empty()) objects.push_back(node);
      if (node->is_array() && !node->as_array().empty()) arrays.push_back(node);
      if (node->is_number()) numbers.push_back(node);
    }
    const auto pick = [&rng](const std::vector<util::Json*>& from) {
      return from[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
    };
    const auto member_key = [&](util::Json* object) {
      const util::JsonObject& members = object->as_object();
      auto it = members.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1));
      return it->first;
    };
    switch (rng.uniform_int(0, 4)) {
      case 0:  // drop a key
        if (!objects.empty()) {
          util::Json* object = pick(objects);
          object->as_object().erase(member_key(object));
        }
        break;
      case 1:  // print a key twice (of several such picks, the last one holds)
        if (!objects.empty()) {
          util::Json* object = pick(objects);
          dup.object = object;
          dup.key = member_key(object);
          dup.value = rng.uniform_int(0, 1) == 0 ? object->as_object().at(dup.key)
                                                 : random_value(rng);
          dup.first = rng.uniform_int(0, 1) == 1;
        }
        break;
      case 2:  // swap a value's type
        *pick(nodes) = random_value(rng);
        break;
      case 3:  // an out-of-range or non-integral number
        if (!numbers.empty()) {
          util::Json* number = pick(numbers);
          *number = util::Json(hostile_number(rng, number->as_number()));
        }
        break;
      default:  // truncate an array
        if (!arrays.empty()) {
          util::JsonArray& array = pick(arrays)->as_array();
          array.resize(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(array.size()) - 1)));
        }
        break;
    }
    // A mutation may have removed the object a duplicate points into.
    if (dup.object != nullptr) {
      std::vector<util::Json*> now;
      collect(doc, now);
      if (std::find(now.begin(), now.end(), dup.object) == now.end() ||
          !dup.object->is_object() || !dup.object->contains(dup.key)) {
        dup = DuplicateKey{};
      }
    }
  }
  std::string text;
  emit(doc, dup, text);
  return text;
}

/// The spec reads back from what scenario_spec_to_json writes, and writes
/// the same document again.
void expect_round_trip(const ScenarioSpec& spec, const std::string& where) {
  const util::Json once = scenario_spec_to_json(spec);
  const std::string error = config_error([&] {
    const ScenarioSpec again = scenario_spec_from_json(once);
    EXPECT_EQ(scenario_spec_to_json(again).dump(), once.dump()) << where;
  });
  EXPECT_EQ(error, "") << where << ": the written spec does not read back";
}

/// Runs `read` on a mutant: a ConfigError counts as a rejection, any other
/// exception fails the test.  Returns whether `read` completed.
template <class Read>
bool read_or_reject(const std::string& text, Read read) {
  try {
    read();
    return true;
  } catch (const util::ConfigError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a ConfigError: " << e.what() << "\n  mutant: " << text;
    return false;
  }
}

constexpr int kMutants = 1500;

TEST(SpecReaderProperty, ScenarioMutantsRoundTripOrThrowConfigError) {
  const util::Json valid = scenario_spec_to_json(valid_spec());
  expect_round_trip(scenario_spec_from_json(valid), "the valid spec");
  util::Rng rng(2701);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(valid, rng);
    ScenarioSpec spec;
    if (read_or_reject(text, [&] { spec = scenario_spec_from_json(util::Json::parse(text)); })) {
      ++parsed;
      expect_round_trip(spec, text);
    }
    if (HasFailure()) return;
  }
  // Both outcomes occur, so the rule is tested on both sides.
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_LT(parsed, kMutants - kMutants / 10);
}

TEST(SpecReaderProperty, GridMutantsMaterializeRoundTrippingSpecsOrThrowConfigError) {
  const util::Json valid = valid_grid();
  ASSERT_EQ(sweep::SweepGrid::from_json(valid).cell_count(), 16u);
  util::Rng rng(2702);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(valid, rng);
    std::vector<ScenarioSpec> specs;
    const bool ok = read_or_reject(text, [&] {
      const sweep::SweepGrid grid = sweep::SweepGrid::from_json(util::Json::parse(text));
      sweep::SweepMaterializer materializer(grid);
      for (const sweep::SweepCell& cell : grid.expand()) {
        specs.push_back(materializer.materialize(cell));
      }
    });
    if (ok) {
      ++parsed;
      for (const ScenarioSpec& spec : specs) expect_round_trip(spec, text);
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_LT(parsed, kMutants - kMutants / 10);
}

TEST(SpecReaderProperty, GeneratingGridMutantsParseOrThrowConfigError) {
  const util::Json valid = valid_generating_grid();
  ASSERT_EQ(sweep::SweepGrid::from_json(valid).cell_count(), 16u);
  util::Rng rng(2703);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = mutate(valid, rng);
    if (read_or_reject(text, [&] {
          const sweep::SweepGrid grid = sweep::SweepGrid::from_json(util::Json::parse(text));
          (void)grid.expand();
        })) {
      ++parsed;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_LT(parsed, kMutants - kMutants / 10);
}

}  // namespace
}  // namespace anor::engine
