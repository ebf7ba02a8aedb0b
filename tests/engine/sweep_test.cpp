// Sweep grid expansion + batch executor (engine/sweep).
//
// The executor's contract: the report lists one result per cell in grid
// order, every result is bit-identical to a plain run_scenario of the
// materialized spec, and neither the run-level worker count, warm-start
// reuse, nor the cache can change a single byte of any result.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
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

TEST(SweepExecutorTest, WarmStartOffCannotChangeResults) {
  const SweepGrid grid = test_grid();
  SweepOptions warm;
  warm.cache = CacheConfig::off();
  SweepOptions cold = warm;
  cold.warm_start = false;
  const SweepReport a = run_sweep(grid, warm);
  const SweepReport b = run_sweep(grid, cold);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(fingerprint(a.cells[i].result), fingerprint(b.cells[i].result));
  }
}

TEST(SweepExecutorTest, SecondPassServesEveryCellFromTheCache) {
  // Test name + pid: ctest runs every case as its own, possibly
  // concurrent, process, so no two runs may share the directory.
  const fs::path dir =
      fs::temp_directory_path() /
      ("anor-" + std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
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
    EXPECT_EQ(second.cells[i].cache, CacheOutcome::kDiskHit);
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

  // Memory-only cache: a first pass misses everywhere but carries the
  // canonical key for every cell.
  SweepOptions memory_only;
  memory_only.cache.memory = true;
  memory_only.cache.disk = false;
  const util::Json doc = util::Json::parse(sweep_report_json(run_sweep(grid, memory_only)).dump());
  for (const util::Json& cell : doc.at("cells").as_array()) {
    EXPECT_EQ(cell.at("cache").as_string(), "miss");
    EXPECT_EQ(cell.at("key").as_string().size(), 16u);
  }
}

}  // namespace
}  // namespace anor::engine::sweep
