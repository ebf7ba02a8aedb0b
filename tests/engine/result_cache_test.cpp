// Disk result cache (engine/sweep/result_cache).
//
// The load-bearing property: a cache hit substitutes for a run, so the
// stored bytes must reproduce the RunResult bit-for-bit, and any doubt
// (epoch drift, spec mismatch under a colliding key, corrupt file) must
// read as a miss — never a wrong result.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "util/json.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine::sweep {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test (removed on teardown).  The name carries the
/// test name and the pid: ctest runs every case as its own process, so
/// under `ctest -j` cases run concurrently and must not share a directory.
class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anor-result-cache-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CacheConfig disk_config() const { return CacheConfig{dir_.string()}; }

  fs::path dir_;
};

ScenarioSpec small_spec(std::uint64_t seed = 11) {
  ScenarioSpec spec;
  spec.name = "cache-test";
  spec.backend = Backend::kTabular;
  spec.policy = PolicyRef("characterized");
  spec.node_count = 8;
  spec.seed = seed;

  workload::PoissonScheduleConfig config;
  config.duration_s = 240.0;
  config.utilization = 0.8;
  config.cluster_nodes = spec.node_count;
  spec.schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), config, util::Rng(seed).child("schedule"));
  spec.static_budget_w = 150.0 * spec.node_count;
  return spec;
}

std::string fingerprint(const RunResult& result) {
  return run_result_to_cache_json(result).dump();
}

TEST_F(ResultCacheTest, RunResultRoundTripsBitForBit) {
  const RunResult result = run_scenario(small_spec());
  ASSERT_GT(result.jobs_completed, 0);
  const util::JsonText encoded = run_result_to_cache_json(result);
  const RunResult decoded = run_result_from_cache_json(encoded.dump());
  EXPECT_EQ(fingerprint(decoded), fingerprint(result));
  // Spot checks beyond the serialized fingerprint: derived accessors see
  // the same data.
  EXPECT_EQ(decoded.jobs_completed, result.jobs_completed);
  EXPECT_EQ(decoded.qos.records().size(), result.qos.records().size());
  EXPECT_EQ(decoded.qos.satisfied(), result.qos.satisfied());
  EXPECT_EQ(decoded.power_w.size(), result.power_w.size());
  EXPECT_EQ(decoded.tracking.p90_error, result.tracking.p90_error);
}

TEST_F(ResultCacheTest, DiskTierSurvivesProcessRestart) {
  const CanonicalSpec spec = canonicalize_spec(small_spec());
  const RunResult result = run_scenario(small_spec());
  {
    ResultCache cache(disk_config());
    RunResult out;
    EXPECT_EQ(cache.lookup(spec, &out), CacheOutcome::kMiss);
    cache.store(spec, result);
  }
  // A fresh cache object reads what another one stored, as a fresh
  // process would, bit-identical; every lookup goes to the directory.
  ResultCache reopened(disk_config());
  for (int i = 0; i < 2; ++i) {
    RunResult out;
    EXPECT_EQ(reopened.lookup(spec, &out), CacheOutcome::kHit);
    EXPECT_EQ(fingerprint(out), fingerprint(result));
  }
  EXPECT_EQ(reopened.stats().lookups, 2u);
  EXPECT_EQ(reopened.stats().disk_hits, 2u);
  EXPECT_EQ(reopened.stats().misses, 0u);
}

TEST_F(ResultCacheTest, OffConfigNeverStoresOrHits) {
  ResultCache cache(CacheConfig::off());
  const CanonicalSpec spec = canonicalize_spec(small_spec());
  const RunResult result = run_scenario(small_spec());
  RunResult out;
  EXPECT_EQ(cache.lookup(spec, &out), CacheOutcome::kOff);
  cache.store(spec, result);
  EXPECT_EQ(cache.lookup(spec, &out), CacheOutcome::kOff);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST_F(ResultCacheTest, DifferentSpecsDoNotCrossTalk) {
  ResultCache cache(disk_config());
  const ScenarioSpec a = small_spec(11);
  cache.store(canonicalize_spec(a), run_scenario(a));
  RunResult out;
  EXPECT_EQ(cache.lookup(canonicalize_spec(small_spec(12)), &out), CacheOutcome::kMiss);
}

TEST_F(ResultCacheTest, EpochMismatchInvalidatesDiskEntries) {
  const CanonicalSpec spec = canonicalize_spec(small_spec());
  {
    ResultCache cache(disk_config());
    cache.store(spec, run_scenario(small_spec()));
  }
  // Rewrite the entry as a past engine version would have: same payload,
  // older epoch (as after a golden-trace change).
  const fs::path entry = dir_ / (spec.key + ".json");
  ASSERT_TRUE(fs::exists(entry));
  util::Json doc = util::load_json_file(entry.string());
  util::JsonObject obj = doc.as_object();
  obj["epoch"] = util::Json(std::string("anor.run_result.v0+golden:stale"));
  util::save_json_file(entry.string(), util::Json(std::move(obj)));

  ResultCache reopened(disk_config());
  RunResult out;
  EXPECT_EQ(reopened.lookup(spec, &out), CacheOutcome::kMiss);
  EXPECT_EQ(reopened.stats().invalidated, 1u);
}

TEST_F(ResultCacheTest, SpecMismatchUnderColludingKeyIsAMiss) {
  const CanonicalSpec spec = canonicalize_spec(small_spec());
  {
    ResultCache cache(disk_config());
    cache.store(spec, run_scenario(small_spec()));
  }
  // Simulate a key collision: the file exists under this spec's key but
  // records a different canonical spec.
  const fs::path entry = dir_ / (spec.key + ".json");
  util::Json doc = util::load_json_file(entry.string());
  util::JsonObject obj = doc.as_object();
  obj["spec_canonical"] = util::Json(std::string("{\"something\":\"else\"}"));
  util::save_json_file(entry.string(), util::Json(std::move(obj)));

  ResultCache reopened(disk_config());
  RunResult out;
  EXPECT_EQ(reopened.lookup(spec, &out), CacheOutcome::kMiss);
  EXPECT_EQ(reopened.stats().invalidated, 1u);
}

TEST_F(ResultCacheTest, CorruptDiskEntryIsAMissNotACrash) {
  const CanonicalSpec spec = canonicalize_spec(small_spec());
  const RunResult result = run_scenario(small_spec());
  {
    ResultCache cache(disk_config());
    cache.store(spec, result);
  }
  const fs::path entry = dir_ / (spec.key + ".json");
  std::ofstream(entry) << "{ truncated garbage";

  ResultCache reopened(disk_config());
  RunResult out;
  EXPECT_EQ(reopened.lookup(spec, &out), CacheOutcome::kMiss);
  EXPECT_EQ(reopened.stats().invalidated, 1u);
  // And a store over the bad entry repairs it.
  reopened.store(spec, result);
  ResultCache again(disk_config());
  EXPECT_EQ(again.lookup(spec, &out), CacheOutcome::kHit);
  EXPECT_EQ(fingerprint(out), fingerprint(result));
}

TEST_F(ResultCacheTest, ConcurrentStoresAndLookupsStayConsistent) {
  // Two threads store and look up one shared key and one key each; a
  // third does the same through a second cache object on the same
  // directory, so two objects publish the shared key at once.  Entries
  // are serialized, written, read and decoded outside the cache's lock,
  // so this is the race the lock scope must survive: every lookup reads
  // what the writers are concurrently publishing.
  const ScenarioSpec shared = small_spec();
  const RunResult result = run_scenario(shared);
  const std::string expected = fingerprint(result);
  const CanonicalSpec shared_canon = canonicalize_spec(shared);
  ResultCache cache(disk_config());
  ResultCache other(disk_config());
  ResultCache reader(disk_config());

  const auto worker = [&](ResultCache& writer, int id) {
    ScenarioSpec own = shared;
    own.seed = 100 + static_cast<std::uint64_t>(id);
    const CanonicalSpec own_canon = canonicalize_spec(own);
    for (int i = 0; i < 8; ++i) {
      writer.store(shared_canon, result);
      writer.store(own_canon, result);
      // Published before this thread's store returned: a hit through
      // either object, never a miss or a torn entry.
      for (ResultCache* probe : {&writer, &reader}) {
        for (const CanonicalSpec* canon : {&shared_canon, &own_canon}) {
          RunResult read;
          EXPECT_EQ(probe->lookup(*canon, &read), CacheOutcome::kHit);
          EXPECT_EQ(fingerprint(read), expected);
        }
      }
    }
  };
  std::thread a(worker, std::ref(cache), 0);
  std::thread b(worker, std::ref(cache), 1);
  std::thread c(worker, std::ref(other), 2);
  a.join();
  b.join();
  c.join();

  EXPECT_EQ(cache.stats().stores, 32u);
  EXPECT_EQ(cache.stats().disk_hits, 32u);
  EXPECT_EQ(other.stats().stores, 16u);
  EXPECT_EQ(other.stats().disk_hits, 16u);
  EXPECT_EQ(reader.stats().lookups, 48u);
  EXPECT_EQ(reader.stats().disk_hits, 48u);
  EXPECT_EQ(reader.stats().invalidated, 0u);
  // Every tmp file was renamed into place.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 4u);
}

}  // namespace
}  // namespace anor::engine::sweep
