// Sweep grid expansion + batch executor (engine/sweep).
//
// The grid reader's contract: every cell is the distinct scenario its
// name states, so the base goes through the spec reader and a grid that
// some cell would not run as written is rejected, naming the field.  The
// executor's: the report lists one result per cell in grid order, every
// result is bit-identical to a plain run_scenario of the materialized
// spec, and neither the run-level worker count nor the cache can change a
// single byte of any result.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/runner.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "engine/sweep/sweep.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace anor::engine::sweep {
namespace {

namespace fs = std::filesystem;

const char* kGridJson = R"({
  "schema": "anor.sweep.v1",
  "name": "grid-test",
  "base": {"backend": "tabular", "node_count": 8, "seed": 5},
  "generate": {"duration_s": 240, "utilization": 0.8, "signal": "budget",
               "budget_per_node_w": 150},
  "axes": [
    {"field": "policy", "values": ["uniform", "characterized"]},
    {"field": "utilization", "values": [0.6, 0.9]}
  ]
})";

SweepGrid test_grid() { return SweepGrid::from_json(util::Json::parse(kGridJson)); }

/// An empty cache directory named for the test and the pid: ctest runs
/// every case as its own, possibly concurrent, process, so no two runs
/// may share it.
fs::path fresh_cache_dir() {
  const fs::path dir =
      fs::temp_directory_path() /
      ("anor-" + std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

/// The ConfigError message SweepGrid::from_json throws for `text`, or ""
/// when it reads the grid.
std::string grid_error(const std::string& text) {
  try {
    (void)SweepGrid::from_json(util::Json::parse(text));
  } catch (const util::ConfigError& e) {
    return e.what();
  }
  return "";
}

std::string fingerprint(const RunResult& result) {
  return run_result_to_cache_json(result).dump();
}

TEST(SweepGridTest, ExpansionIsDeterministicAndFirstAxisSlowest) {
  const SweepGrid grid = test_grid();
  EXPECT_EQ(grid.cell_count(), 4u);
  const std::vector<SweepCell> cells = grid.expand();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].name, "policy=uniform,utilization=0.6");
  EXPECT_EQ(cells[1].name, "policy=uniform,utilization=0.9");
  EXPECT_EQ(cells[2].name, "policy=characterized,utilization=0.6");
  EXPECT_EQ(cells[3].name, "policy=characterized,utilization=0.9");
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
  // Expansion is pure: a second expand yields the same cells.
  const std::vector<SweepCell> again = grid.expand();
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(again[i].name, cells[i].name);
}

TEST(SweepGridTest, RejectsUnknownAxisFieldsAndEmptyValues) {
  util::Json bad = util::Json::parse(R"({
    "schema": "anor.sweep.v1",
    "base": {"node_count": 8},
    "generate": {"duration_s": 120},
    "axes": [{"field": "frobnicate", "values": [1]}]
  })");
  EXPECT_THROW(SweepGrid::from_json(bad), util::ConfigError);

  util::Json empty = util::Json::parse(R"({
    "schema": "anor.sweep.v1",
    "base": {"node_count": 8},
    "generate": {"duration_s": 120},
    "axes": [{"field": "policy", "values": []}]
  })");
  EXPECT_THROW(SweepGrid::from_json(empty), util::ConfigError);
}

TEST(SweepGridTest, RequiresScheduleOrGenerate) {
  util::Json bare = util::Json::parse(R"({
    "schema": "anor.sweep.v1",
    "base": {"node_count": 8}
  })");
  EXPECT_THROW(SweepGrid::from_json(bare), util::ConfigError);
  // No base reads as an empty one: a base without `backend` runs tabular.
  EXPECT_EQ(SweepGrid::from_json(util::Json::parse(R"({"generate": {}})")).base.backend,
            Backend::kTabular);
}

TEST(SweepGridTest, RejectsGridsWhoseCellsWouldNotRunAsWritten) {
  // An axis that changes nothing or repeats a value makes two names for
  // one scenario (one cache key); a budget over base targets and a base
  // field the generate block replaces describe no runnable cell; a base
  // artifact_dir gives every cell one directory.  The error names the
  // field.
  const auto grid = [](const std::string& base, const std::string& rest) {
    return R"({"base": {"node_count": 8)" + base + "}, " + rest + "}";
  };
  const std::string gen = R"("generate": {"duration_s": 120})";
  const std::string schedule = R"(, "schedule": {"duration_s": 60, "jobs": [
      {"id": 0, "nodes": 1, "type": "bt.D.x", "submit_s": 0}]})";
  const auto axis = [](const char* field, const char* values) {
    return std::string(R"("axes": [{"field": ")") + field + R"(", "values": )" + values + "}]";
  };
  const std::pair<std::string, std::string> cases[] = {
      {grid("", gen + ", " + axis("static_budget_w", "[1000, 1200]")), "'static_budget_w'"},
      {grid(schedule, axis("utilization", "[0.5, 0.8]")), "'utilization'"},
      {grid(schedule, axis("duration_s", "[60, 120]")), "'duration_s'"},
      {grid(schedule, axis("signal", R"(["none", "dr"])")), "'signal'"},
      {grid(schedule + R"(, "targets": {"t_s": [0], "power_w": [1200]})",
            axis("static_budget_w", "[null, 1200]")),
       "'static_budget_w' sets a budget on a base with targets"},
      {grid("", gen + ", " + axis("policy", R"(["uniform", "adjusted", "uniform"])")),
       R"('policy' lists "uniform" twice)"},
      {grid("", gen + ", " + axis("utilization", "[0.5, 0.50]")), "'utilization' lists 0.5 twice"},
      {grid(R"(, "schedule": {"duration_s": 60, "jobs": []})", gen), "base.schedule"},
      {grid(R"(, "static_budget_w": 1200)", gen), "base.static_budget_w"},
      {grid(R"(, "targets": {"t_s": [0], "power_w": [1200]})", gen), "base.targets"},
      {grid(R"(, "artifact_dir": "arts")", gen), "base.artifact_dir"}};
  for (const auto& [text, field] : cases) {
    const std::string error = grid_error(text);
    EXPECT_NE(error.find(field), std::string::npos) << text << "\n  threw: " << error;
  }
}

TEST(SweepGridTest, BaseTargetsReachEveryCell) {
  // A base is a scenario spec: its target series reaches every cell, and
  // each cell's result is what `anorctl run --scenario` of the same spec
  // (read back through scenario_spec_from_json) computes.
  const SweepGrid generated = test_grid();
  ScenarioSpec spec = SweepMaterializer(generated).materialize(generated.expand().front());
  spec.static_budget_w.reset();
  spec.targets.add(0.0, 1120.0);
  spec.targets.add(120.0, 1060.0);
  spec.targets.add(240.0, 1280.0);
  util::JsonObject document;
  document["base"] = scenario_spec_to_json(spec);
  document["axes"] = util::Json::parse(
      R"([{"field": "policy", "values": ["uniform", "characterized"]}])");
  SweepOptions options;
  options.cache = CacheConfig::off();
  const SweepReport report =
      run_sweep(SweepGrid::from_json(util::Json(std::move(document))), options);
  ASSERT_EQ(report.cells.size(), 2u);
  for (const SweepCellResult& cell : report.cells) {
    EXPECT_FALSE(cell.result.target_w.empty()) << cell.cell.name;
    EXPECT_GT(cell.result.tracking.samples, 0u) << cell.cell.name;
    spec.policy = policy_ref_from_json(cell.cell.assignment.front().second);
    const RunResult alone = run_scenario(scenario_spec_from_json(scenario_spec_to_json(spec)));
    EXPECT_EQ(fingerprint(cell.result), fingerprint(alone)) << cell.cell.name;
  }
}

TEST(SweepGridTest, MaterializerSharesSchedulesAcrossPolicyCells) {
  // Cells that differ only in policy share the same generated workload;
  // utilization changes it.
  const SweepGrid grid = test_grid();
  const std::vector<SweepCell> cells = grid.expand();
  SweepMaterializer materializer(grid);
  const ScenarioSpec u06 = materializer.materialize(cells[0]);
  const ScenarioSpec c06 = materializer.materialize(cells[2]);
  const ScenarioSpec u09 = materializer.materialize(cells[1]);
  ASSERT_FALSE(u06.schedule.jobs.empty());
  EXPECT_EQ(u06.schedule.jobs.size(), c06.schedule.jobs.size());
  EXPECT_EQ(u06.schedule.jobs[0].submit_time_s, c06.schedule.jobs[0].submit_time_s);
  EXPECT_NE(u06.schedule.jobs.size(), u09.schedule.jobs.size());
  EXPECT_EQ(*u06.static_budget_w, 150.0 * 8);
}

TEST(SweepExecutorTest, MatchesSequentialRunScenarioBitForBit) {
  const SweepGrid grid = test_grid();
  SweepOptions options;
  options.cache = CacheConfig::off();
  const SweepReport report = run_sweep(grid, options);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_EQ(report.cells_computed, 4u);
  EXPECT_EQ(report.cache_hits, 0u);

  SweepMaterializer materializer(grid);
  const std::vector<SweepCell> cells = grid.expand();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ScenarioSpec spec = materializer.materialize(cells[i]);
    const RunResult reference = run_scenario(spec);
    EXPECT_EQ(fingerprint(report.cells[i].result), fingerprint(reference))
        << cells[i].name;
    // Canonicalization is lazy: with the cache off no key is computed.
    EXPECT_TRUE(report.cells[i].key.empty());
  }
}

TEST(SweepExecutorTest, RunWorkerCountCannotChangeResults) {
  const SweepGrid grid = test_grid();
  SweepOptions serial;
  serial.cache = CacheConfig::off();
  const SweepReport reference = run_sweep(grid, serial);
  for (int workers : {2, 4}) {
    SweepOptions options;
    options.cache = CacheConfig::off();
    options.run_workers = workers;
    const SweepReport report = run_sweep(grid, options);
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      EXPECT_EQ(fingerprint(report.cells[i].result),
                fingerprint(reference.cells[i].result))
          << "run_workers=" << workers << " cell " << reference.cells[i].cell.name;
    }
  }
}

TEST(SweepExecutorTest, EmulatedRunWorkersMatchSerial) {
  // Emulated runs on two run workers: each binds its own clock for trace
  // and log stamps on its own thread, and its in-process tier links take
  // no lock, so nothing of one run may reach the other (TSan runs this).
  const SweepGrid grid = SweepGrid::from_json(util::Json::parse(R"({
    "schema": "anor.sweep.v1",
    "name": "emulated-grid-test",
    "base": {"backend": "emulated", "node_count": 8, "seed": 11},
    "generate": {"duration_s": 240, "utilization": 0.8, "signal": "budget",
                 "budget_per_node_w": 150},
    "axes": [
      {"field": "policy", "values": ["characterized", "adjusted"]},
      {"field": "utilization", "values": [0.6, 0.9]}
    ]
  })"));
  SweepOptions serial;
  serial.cache = CacheConfig::off();
  const SweepReport reference = run_sweep(grid, serial);
  SweepOptions parallel = serial;
  parallel.run_workers = 2;
  const SweepReport report = run_sweep(grid, parallel);
  ASSERT_EQ(reference.cells.size(), 4u);
  ASSERT_EQ(report.cells.size(), reference.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_GT(reference.cells[i].result.jobs_completed, 0) << reference.cells[i].cell.name;
    EXPECT_EQ(fingerprint(report.cells[i].result), fingerprint(reference.cells[i].result))
        << reference.cells[i].cell.name;
  }
}

TEST(SweepExecutorTest, SecondPassServesEveryCellFromTheCache) {
  const fs::path dir = fresh_cache_dir();
  const SweepGrid grid = test_grid();
  SweepOptions options;
  options.cache.dir = dir.string();

  const SweepReport first = run_sweep(grid, options);
  EXPECT_EQ(first.cells_computed, 4u);
  EXPECT_EQ(first.cache_hits, 0u);

  const SweepReport second = run_sweep(grid, options);
  EXPECT_EQ(second.cells_computed, 0u);
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_DOUBLE_EQ(second.cache_stats.hit_rate(), 1.0);
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(fingerprint(second.cells[i].result), fingerprint(first.cells[i].result));
    EXPECT_EQ(second.cells[i].cache, CacheOutcome::kHit);
  }

  // The deterministic projection is byte-identical across the two passes
  // (what the CI smoke compares with cmp).
  EXPECT_EQ(sweep_results_deterministic_json(second).dump(),
            sweep_results_deterministic_json(first).dump());
  fs::remove_all(dir);
}

TEST(SweepExecutorTest, ProgressCallbackSeesEveryCellExactlyOnce) {
  const SweepGrid grid = test_grid();
  SweepOptions options;
  options.cache = CacheConfig::off();
  options.run_workers = 2;
  std::set<std::size_t> seen;
  std::size_t max_done = 0;
  options.on_cell_done = [&](const SweepCellResult& cell, std::size_t done,
                             std::size_t total) {
    seen.insert(cell.cell.index);
    max_done = std::max(max_done, done);
    EXPECT_EQ(total, 4u);
  };
  run_sweep(grid, options);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(max_done, 4u);
}

TEST(SweepExecutorTest, ReportJsonCarriesCacheProvenance) {
  const SweepGrid grid = test_grid();
  // Cache off: every cell reports "off" and no key is canonicalized.
  SweepOptions off;
  off.cache = CacheConfig::off();
  const util::Json off_doc = util::Json::parse(sweep_report_json(run_sweep(grid, off)).dump());
  EXPECT_EQ(off_doc.at("schema").as_string(), "anor.sweep_result.v1");
  EXPECT_EQ(off_doc.at("cells").as_array().size(), 4u);
  for (const util::Json& cell : off_doc.at("cells").as_array()) {
    EXPECT_EQ(cell.at("cache").as_string(), "off");
    EXPECT_TRUE(cell.at("key").as_string().empty());
  }

  // A fresh cache directory: a first pass misses everywhere but carries
  // the canonical key for every cell, and a second pass reads "hit".
  const fs::path dir = fresh_cache_dir();
  SweepOptions cached;
  cached.cache.dir = dir.string();
  for (const char* expected : {"miss", "hit"}) {
    const util::Json doc = util::Json::parse(sweep_report_json(run_sweep(grid, cached)).dump());
    for (const util::Json& cell : doc.at("cells").as_array()) {
      EXPECT_EQ(cell.at("cache").as_string(), expected);
      EXPECT_EQ(cell.at("key").as_string().size(), 16u);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace anor::engine::sweep
