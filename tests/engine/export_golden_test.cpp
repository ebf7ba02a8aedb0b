// Golden bytes of every result export and cache entry.
//
// The run-result artifact, the cache entry, the canonical spec string and
// the two sweep documents are compared byte for byte elsewhere (the sweep
// smoke's cmp, the cache epoch, perfbench's result_hash).  These hashes pin
// the exact bytes of each writer on two small fixed scenarios, one per
// backend, so a change to how any of them is produced cannot move a single
// byte unnoticed.  The expected values were recorded from the DOM-based
// writers these documents were first produced with.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "util/hash.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine::sweep {
namespace {

namespace fs = std::filesystem;

std::string fnv1a_hex(const std::string& bytes) {
  return util::hex16(util::fnv1a(bytes, util::kFnv1aRecordBasis));
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// A tabular run under a varying target, with misclassified jobs (so
/// `classified_as` appears) and feedback on.
ScenarioSpec tabular_spec() {
  ScenarioSpec spec;
  spec.name = "golden-tabular";
  spec.backend = Backend::kTabular;
  spec.policy = PolicyRef("adjusted");
  spec.node_count = 8;
  spec.seed = 5;
  workload::PoissonScheduleConfig config;
  config.duration_s = 300.0;
  config.utilization = 0.8;
  config.cluster_nodes = spec.node_count;
  spec.schedule = workload::generate_poisson_schedule(workload::nas_long_job_types(), config,
                                                      util::Rng(5).child("schedule"));
  workload::misclassify(spec.schedule, "bt.D.x", "is.D.x");
  for (double t = 0.0; t <= 300.0; t += 4.0) {
    spec.targets.add(t, 150.0 * spec.node_count * (1.0 + 0.1 * std::sin(t / 37.0)));
  }
  spec.tracking_warmup_s = 30.0;
  return spec;
}

/// An emulated run under a static budget.
ScenarioSpec emulated_spec() {
  ScenarioSpec spec;
  spec.name = "golden-emulated";
  spec.backend = Backend::kEmulated;
  spec.policy = PolicyRef("characterized");
  spec.node_count = 4;
  spec.seed = 3;
  workload::PoissonScheduleConfig config;
  config.duration_s = 240.0;
  config.utilization = 0.8;
  config.cluster_nodes = spec.node_count;
  spec.schedule = workload::generate_poisson_schedule(workload::nas_long_job_types(), config,
                                                      util::Rng(3).child("schedule"));
  spec.static_budget_w = 160.0 * spec.node_count;
  spec.tracking_reserve_w = *spec.static_budget_w;
  return spec;
}

const RunResult& tabular_result() {
  static const RunResult result = run_scenario(tabular_spec());
  return result;
}

const RunResult& emulated_result() {
  static const RunResult result = run_scenario(emulated_spec());
  return result;
}

class ExportGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anor-export-golden-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string saved_run_result(const RunResult& result) const {
    const fs::path path = dir_ / "run_result.json";
    save_run_result(path.string(), result);
    return read_file(path);
  }

  std::string stored_entry(const ScenarioSpec& spec, const RunResult& result) const {
    ResultCache cache(CacheConfig{dir_.string()});
    cache.store(canonicalize_spec(spec), result);
    return read_file(dir_ / (canonical_spec_key(spec) + ".json"));
  }

  fs::path dir_;
};

/// Two cells, one per backend, with every wall-clock and cache field fixed.
SweepReport two_cell_report() {
  SweepReport report;
  report.grid_name = "golden \"grid\"";
  report.cells.resize(2);
  report.cells[0].cell.index = 0;
  report.cells[0].cell.name = "backend=tabular";
  report.cells[0].spec_name = "golden-tabular";
  report.cells[0].key = canonical_spec_key(tabular_spec());
  report.cells[0].cache = CacheOutcome::kMiss;
  report.cells[0].wall_s = 0.125;
  report.cells[0].result = tabular_result();
  report.cells[1].cell.index = 1;
  report.cells[1].cell.name = "backend=emulated";
  report.cells[1].spec_name = "golden-emulated";
  report.cells[1].key = canonical_spec_key(emulated_spec());
  report.cells[1].cache = CacheOutcome::kHit;
  report.cells[1].wall_s = 1.0 / 3.0;
  report.cells[1].result = emulated_result();
  report.cache_stats.lookups = 2;
  report.cache_stats.disk_hits = 1;
  report.cache_stats.misses = 1;
  report.cache_stats.stores = 1;
  report.wall_s = 2.5;
  report.cells_computed = 1;
  report.cache_hits = 1;
  return report;
}

TEST_F(ExportGolden, TabularRunResult) {
  ASSERT_GT(tabular_result().jobs_completed, 0);
  EXPECT_EQ(fnv1a_hex(run_result_json(tabular_result()).dump()), "7f6b902df79fd165");
  EXPECT_EQ(fnv1a_hex(saved_run_result(tabular_result())), "424107e2e4f49acf");
}

TEST_F(ExportGolden, EmulatedRunResult) {
  ASSERT_GT(emulated_result().jobs_completed, 0);
  EXPECT_EQ(fnv1a_hex(run_result_json(emulated_result()).dump()), "737f570053ff2ac2");
  EXPECT_EQ(fnv1a_hex(saved_run_result(emulated_result())), "ff85b745403abd1e");
}

TEST_F(ExportGolden, CacheJson) {
  EXPECT_EQ(util::hex16(result_hash(tabular_result())), "40347d74bb2e4bcb");
  EXPECT_EQ(util::hex16(result_hash(emulated_result())), "9abfa01d2be85430");
}

TEST_F(ExportGolden, StoredCacheEntry) {
  EXPECT_EQ(fnv1a_hex(stored_entry(tabular_spec(), tabular_result())), "51f98e2797b80d96");
  EXPECT_EQ(fnv1a_hex(stored_entry(emulated_spec(), emulated_result())), "95e1288c01db773f");
}

TEST_F(ExportGolden, CanonicalSpecString) {
  EXPECT_EQ(fnv1a_hex(canonical_spec_string(tabular_spec())), "bb79226df766cbd6");
  EXPECT_EQ(fnv1a_hex(canonical_spec_string(emulated_spec())), "2a761a88610a77e7");
}

TEST_F(ExportGolden, SweepDocuments) {
  const SweepReport report = two_cell_report();
  EXPECT_EQ(fnv1a_hex(sweep_results_deterministic_json(report).dump()), "fba9658ea414a31e");
  EXPECT_EQ(fnv1a_hex(sweep_report_json(report).dump()), "942d02c07a610959");
}

TEST_F(ExportGolden, SweepDocumentsIndented) {
  // The form `anorctl sweep --out` / `--results-out` write.
  const SweepReport report = two_cell_report();
  EXPECT_EQ(fnv1a_hex(sweep_results_deterministic_json(report, 2).dump()), "d59416a747ae963a");
  EXPECT_EQ(fnv1a_hex(sweep_report_json(report, 2).dump()), "fbd261221fa49bd3");
}

}  // namespace
}  // namespace anor::engine::sweep
