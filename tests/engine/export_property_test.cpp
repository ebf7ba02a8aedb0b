// The streaming result documents against their DOM reference, and the
// cache-entry reader against the DOM-era decode, on seeded random inputs.
//
// (a) Every writer — the run-result artifact, the cache form, the sweep
//     documents (compact and indented), the canonical spec — produces the
//     bytes the util::Json builders in dom_reference.cpp produce, for
//     random results with awkward strings and doubles.
// (b) The reader decodes what the writer encodes to the same fingerprint,
//     and accepts exactly what a Json::parse-based decode accepts: pretty
//     and key-shuffled entries hit, every truncation misses, and a random
//     byte flip either misses (counted as invalidated) or decodes to what
//     the DOM decode would have served.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/dom_reference.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "geopm/report.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace anor::engine::sweep {
namespace {

namespace fs = std::filesystem;

/// Strings with quotes, backslashes, control bytes and UTF-8.
std::string awkward_string(util::Rng& rng) {
  static const std::string kPieces[] = {"bt.D.x", "is.D.x", "\"", "\\", "\n", "\t", "\x01",
                                        "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac", "/", " ",
                                        "\b", "\f", "\r"};
  std::string s;
  const auto n = rng.uniform_int(0, 5);
  for (std::int64_t i = 0; i < n; ++i) {
    s += rng.uniform_int(0, 5) == 0 ? std::string(1, static_cast<char>(rng.uniform_int(1, 255)))
                                    : kPieces[rng.uniform_int(0, std::size(kPieces) - 1)];
  }
  return s;
}

/// Doubles across magnitudes: -0.0, subnormals, integers near 1e15 and
/// above 2^53, random bit patterns — and, unless `finite`, NaN and ±inf
/// (which no JSON reader accepts back).
double awkward_double(util::Rng& rng, bool finite) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng.uniform_int(0, 9)) {
    case 0: return -0.0;
    case 1: return std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffULL);  // subnormal
    case 2: return 1e15 + static_cast<double>(rng.uniform_int(-3, 3));
    case 3: return 9007199254740992.0 * static_cast<double>(rng.uniform_int(1, 1000));
    case 4: {
      if (finite) return DBL_MAX;
      const double specials[] = {std::numeric_limits<double>::quiet_NaN(), inf, -inf};
      return specials[rng.uniform_int(0, 2)];
    }
    case 5: {
      const double d = std::bit_cast<double>(rng.next_u64());
      return std::isfinite(d) || !finite ? d : 1.5;
    }
    case 6: return static_cast<double>(rng.uniform_int(-100000, 100000));
    default: return rng.uniform(-5000.0, 5000.0);
  }
}

util::TimeSeries awkward_series(util::Rng& rng, bool finite) {
  util::TimeSeries series;
  const auto n = rng.uniform_int(0, 40);
  std::vector<double> times;
  for (std::int64_t i = 0; i < n; ++i) {
    times.push_back(rng.uniform_int(0, 4) == 0 ? std::floor(rng.uniform(0.0, 200.0))
                                               : rng.uniform(-10.0, 400.0));
  }
  std::sort(times.begin(), times.end());
  for (const double t : times) series.add(t, awkward_double(rng, finite));
  return series;
}

RunResult random_result(util::Rng& rng, bool finite) {
  RunResult result;
  const auto jobs = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < jobs; ++i) {
    CompletedJob job;
    job.request.job_id = static_cast<int>(rng.uniform_int(0, 1 << 30));
    job.request.type_name = awkward_string(rng);
    job.request.submit_time_s = awkward_double(rng, finite);
    job.request.nodes = static_cast<int>(rng.uniform_int(0, 4096));
    if (rng.uniform_int(0, 1) == 0) job.request.classified_as = awkward_string(rng);
    job.request.walltime_hint_s = awkward_double(rng, finite);
    job.report.job_name = awkward_string(rng);
    job.report.agent_name = awkward_string(rng);
    job.report.node_count = static_cast<int>(rng.uniform_int(-5, 4096));
    job.report.runtime_s = awkward_double(rng, finite);
    job.report.compute_runtime_s = awkward_double(rng, finite);
    job.report.package_energy_j = awkward_double(rng, finite);
    job.report.average_power_w = awkward_double(rng, finite);
    job.report.epoch_count = static_cast<long>(rng.uniform_int(0, 1LL << 40));
    job.report.average_cap_w = awkward_double(rng, finite);
    job.submit_s = awkward_double(rng, finite);
    job.start_s = awkward_double(rng, finite);
    job.end_s = awkward_double(rng, finite);
    job.reference_runtime_s = awkward_double(rng, finite);
    result.completed.push_back(std::move(job));
  }
  result.power_w = awkward_series(rng, finite);
  if (rng.uniform_int(0, 2) != 0) result.target_w = awkward_series(rng, finite);
  result.tracking.mean_error = awkward_double(rng, finite);
  result.tracking.p90_error = awkward_double(rng, finite);
  result.tracking.max_error = awkward_double(rng, finite);
  result.tracking.fraction_within_30 = awkward_double(rng, finite);
  result.tracking.samples = static_cast<std::size_t>(rng.uniform_int(0, 1LL << 50));
  // QoS quantiles sort the records' degradations: keep those finite.
  sched::QosConstraint constraint;
  constraint.limit = rng.uniform(0.0, 10.0);
  constraint.probability = rng.uniform_int(0, 1) == 0 ? 0.9 : rng.uniform(0.0, 1.0);
  result.qos = sched::QosEvaluator(constraint);
  const auto records = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < records; ++i) {
    sched::JobQosRecord record;
    record.job_id = static_cast<int>(rng.uniform_int(0, 1000));
    record.type_name = rng.uniform_int(0, 1) == 0 ? "bt.D.x" : awkward_string(rng);
    record.submit_s = rng.uniform(0.0, 100.0);
    record.start_s = record.submit_s + rng.uniform(0.0, 100.0);
    record.end_s = record.start_s + rng.uniform(0.0, 500.0);
    record.t_min_s = rng.uniform_int(0, 5) == 0 ? 0.0 : rng.uniform(1.0, 300.0);
    result.qos.add(std::move(record));
  }
  result.end_time_s = awkward_double(rng, finite);
  result.jobs_submitted = static_cast<int>(rng.uniform_int(-1, 1 << 20));
  result.jobs_completed = static_cast<int>(rng.uniform_int(-1, 1 << 20));
  result.mean_utilization = awkward_double(rng, finite);
  return result;
}

SweepReport random_report(util::Rng& rng) {
  SweepReport report;
  report.grid_name = awkward_string(rng);
  const auto cells = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < cells; ++i) {
    SweepCellResult cell;
    cell.cell.index = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
    cell.cell.name = awkward_string(rng);
    cell.spec_name = awkward_string(rng);
    cell.key = awkward_string(rng);
    cell.cache = static_cast<CacheOutcome>(rng.uniform_int(0, 3));
    cell.wall_s = awkward_double(rng, false);
    cell.result = random_result(rng, false);
    report.cells.push_back(std::move(cell));
  }
  report.cache_stats.lookups = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 60));
  report.cache_stats.memory_hits = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  report.cache_stats.disk_hits = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  report.cache_stats.misses = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  report.cache_stats.stores = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  report.cache_stats.invalidated = static_cast<std::uint64_t>(rng.uniform_int(0, 1000));
  report.wall_s = awkward_double(rng, false);
  report.cells_computed = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  report.cache_hits = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  return report;
}

ScenarioSpec random_spec(util::Rng& rng) {
  ScenarioSpec spec;
  spec.backend = rng.uniform_int(0, 1) == 0 ? Backend::kTabular : Backend::kEmulated;
  switch (rng.uniform_int(0, 3)) {
    case 0: spec.policy = PolicyRef("uniform"); break;
    case 1: spec.policy = PolicyRef("characterized"); break;
    case 2: spec.policy = PolicyRef(awkward_string(rng) + "-unregistered"); break;
    default: spec.policy = PolicyRef("dsl-" + awkward_string(rng), "budget_w / total_nodes");
  }
  spec.schedule.duration_s = awkward_double(rng, true);
  const auto jobs = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < jobs; ++i) {
    workload::JobRequest job;
    job.job_id = static_cast<int>(rng.uniform_int(0, 1 << 30));
    job.type_name = awkward_string(rng);
    job.submit_time_s = awkward_double(rng, false);
    job.nodes = static_cast<int>(rng.uniform_int(0, 64));
    if (rng.uniform_int(0, 1) == 0) job.classified_as = awkward_string(rng);
    job.walltime_hint_s = awkward_double(rng, false);
    spec.schedule.jobs.push_back(job);
  }
  if (rng.uniform_int(0, 2) == 0) spec.static_budget_w = awkward_double(rng, false);
  if (rng.uniform_int(0, 2) == 0) spec.targets = awkward_series(rng, false);
  spec.node_count = static_cast<int>(rng.uniform_int(1, 100000));
  spec.perf_variation_sigma = awkward_double(rng, false);
  spec.seed = rng.next_u64();
  spec.tracking_warmup_s = awkward_double(rng, false);
  spec.tracking_reserve_w = awkward_double(rng, false);
  return spec;
}

std::string fingerprint(const RunResult& result) { return run_result_to_cache_json(result).dump(); }

// --- (a) writer against the DOM reference ------------------------------------

TEST(ExportDifferential, RunResultDocumentsMatchTheDomBuilders) {
  util::Rng rng(101);
  for (int i = 0; i < 600; ++i) {
    const RunResult result = random_result(rng, false);
    const double decimation = rng.uniform_int(0, 1) == 0 ? 30.0 : rng.uniform(0.0, 50.0);
    ASSERT_EQ(run_result_json(result, decimation).dump(),
              dom_reference::run_result_json(result, decimation).dump());
    ASSERT_EQ(run_result_to_cache_json(result).dump(),
              dom_reference::run_result_to_cache_json(result).dump());
  }
}

TEST(ExportDifferential, SweepDocumentsMatchTheDomBuildersAtEveryIndent) {
  util::Rng rng(202);
  for (int i = 0; i < 150; ++i) {
    const SweepReport report = random_report(rng);
    for (const int indent : {-1, 2}) {
      ASSERT_EQ(sweep_report_json(report, indent).dump(),
                dom_reference::sweep_report_json(report).dump(indent));
      ASSERT_EQ(sweep_results_deterministic_json(report, indent).dump(),
                dom_reference::sweep_results_deterministic_json(report).dump(indent));
    }
  }
}

TEST(ExportDifferential, CanonicalSpecStringMatchesTheDomBuilder) {
  util::Rng rng(303);
  for (int i = 0; i < 1000; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    ASSERT_EQ(canonical_spec_string(spec), dom_reference::canonical_spec_json(spec).dump());
  }
}

TEST(ExportDifferential, JobReportStreamsItsJsonBytes) {
  util::Rng rng(404);
  for (int i = 0; i < 500; ++i) {
    const RunResult result = random_result(rng, false);
    for (const CompletedJob& job : result.completed) {
      util::JsonWriter out;
      job.report.write_json(out);
      ASSERT_EQ(out.finish().dump(), job.report.to_json().dump());
    }
  }
}

// --- (b) the cache-entry reader ----------------------------------------------

class CacheReaderProperty : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anor-cache-reader-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_.name = "reader";
    spec_.backend = Backend::kTabular;
    spec_.node_count = 4;
    spec_.seed = 9;
    spec_.schedule.duration_s = 60.0;
    canon_ = canonicalize_spec(spec_);
    // Thousands of deliberately unreadable entries: keep their warnings
    // out of the test output.
    util::Logger::instance().set_sink(&log_sink_);
  }
  void TearDown() override {
    util::Logger::instance().set_sink(nullptr);
    fs::remove_all(dir_);
  }

  CacheConfig disk_only() const {
    CacheConfig config;
    config.memory = false;
    config.dir = dir_.string();
    return config;
  }

  /// Look `text` up as this spec's disk entry in a fresh cache; on a miss
  /// the entry must have been counted as invalidated.
  CacheOutcome lookup_text(const std::string& text, RunResult* out) const {
    std::ofstream(dir_ / (canon_.key + ".json"), std::ios::binary) << text;
    ResultCache cache(disk_only());
    const CacheOutcome outcome = cache.lookup(canon_, out);
    if (outcome == CacheOutcome::kMiss) EXPECT_EQ(cache.stats().invalidated, 1u);
    return outcome;
  }

  std::string dom_entry(const RunResult& result, int indent) const {
    return dom_reference::cache_entry_json(spec_, result).dump(indent) + "\n";
  }

  fs::path dir_;
  ScenarioSpec spec_;
  CanonicalSpec canon_;
  std::ostringstream log_sink_;
};

TEST_F(CacheReaderProperty, DecodingAnEncodedResultKeepsItsFingerprint) {
  util::Rng rng(505);
  for (int i = 0; i < 400; ++i) {
    const RunResult result = random_result(rng, true);
    const std::string encoded = run_result_to_cache_json(result).dump();
    ASSERT_EQ(fingerprint(run_result_from_cache_json(encoded)), encoded);
  }
}

TEST_F(CacheReaderProperty, StoredEntriesAndDomWrittenEntriesAreServed) {
  util::Rng rng(606);
  for (int i = 0; i < 40; ++i) {
    const RunResult result = random_result(rng, true);
    {
      ResultCache writer(disk_only());
      writer.store(canon_, result);
    }
    ResultCache reader(disk_only());
    RunResult out;
    ASSERT_EQ(reader.lookup(canon_, &out), CacheOutcome::kDiskHit);
    ASSERT_EQ(fingerprint(out), fingerprint(result));
    // The bytes store() writes are the DOM reference's entry, and an entry
    // the DOM writer produced (compact or pretty) is served too.
    std::ifstream in(dir_ / (canon_.key + ".json"), std::ios::binary);
    const std::string stored((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_EQ(stored, dom_entry(result, -1));
    for (const int indent : {-1, 2}) {
      RunResult served;
      ASSERT_EQ(lookup_text(dom_entry(result, indent), &served), CacheOutcome::kDiskHit);
      ASSERT_EQ(fingerprint(served), fingerprint(result));
    }
  }
}

/// Serialize with every object's keys shuffled and random whitespace
/// between tokens.
void dump_shuffled(const util::Json& json, util::Rng& rng, std::string& out) {
  static const char* kSpace[] = {"", " ", "\n", "\t", "\r\n  ", "   "};
  const auto space = [&] { out += kSpace[rng.uniform_int(0, 5)]; };
  space();
  if (json.is_object()) {
    std::vector<const std::pair<const std::string, util::Json>*> members;
    for (const auto& member : json.as_object()) members.push_back(&member);
    for (std::size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)]);
    }
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += ',';
      space();
      util::append_json_string(out, members[i]->first);
      space();
      out += ':';
      dump_shuffled(members[i]->second, rng, out);
    }
    space();
    out += '}';
  } else if (json.is_array()) {
    out += '[';
    const util::JsonArray& items = json.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      dump_shuffled(items[i], rng, out);
    }
    space();
    out += ']';
  } else {
    out += json.dump();
  }
  space();
}

TEST_F(CacheReaderProperty, KeyShuffledEntriesStillHit) {
  util::Rng rng(707);
  for (int i = 0; i < 60; ++i) {
    const RunResult result = random_result(rng, true);
    std::string text;
    dump_shuffled(dom_reference::cache_entry_json(spec_, result), rng, text);
    RunResult served;
    ASSERT_EQ(lookup_text(text, &served), CacheOutcome::kDiskHit);
    ASSERT_EQ(fingerprint(served), fingerprint(result));
  }
}

/// A small entry: two jobs, a few samples, two QoS records.
RunResult small_result() {
  RunResult result;
  for (int i = 0; i < 2; ++i) {
    CompletedJob job;
    job.request.job_id = 7 + i;
    job.request.type_name = i == 0 ? "bt.D.x" : "sp.D.x";
    job.request.submit_time_s = 1.25 * i;
    job.request.nodes = 2;
    if (i == 1) job.request.classified_as = "is.D.x";
    job.report.job_name = "job-" + std::to_string(7 + i);
    job.report.node_count = 2;
    job.report.runtime_s = 101.5 + i;
    job.report.compute_runtime_s = 99.25;
    job.report.package_energy_j = 30123.75;
    job.report.average_power_w = 296.8;
    job.report.epoch_count = 40;
    job.report.average_cap_w = 280.0 / 3.0;
    job.submit_s = 1.25 * i;
    job.start_s = 2.0 + i;
    job.end_s = 103.5 + 2 * i;
    job.reference_runtime_s = 95.125;
    result.completed.push_back(std::move(job));
    result.qos.add(sched::JobQosRecord{7 + i, i == 0 ? "bt.D.x" : "sp.D.x", 1.25 * i, 2.0 + i,
                                       103.5 + 2 * i, 95.125});
  }
  for (int i = 0; i < 3; ++i) {
    result.power_w.add(4.0 * i, 550.0 + 0.1 * i);
    result.target_w.add(4.0 * i, 560.0);
  }
  result.tracking = util::TrackingErrorStats{0.02, 0.05, 0.1, 0.9, 3};
  result.end_time_s = 107.5;
  result.jobs_submitted = 2;
  result.jobs_completed = 2;
  result.mean_utilization = 0.8125;
  return result;
}

TEST_F(CacheReaderProperty, EveryTruncationIsAMiss) {
  std::string text = dom_entry(small_result(), -1);
  text.pop_back();  // the newline: a prefix that keeps it whole is the whole document
  for (std::size_t length = 0; length < text.size(); ++length) {
    RunResult out;
    ASSERT_EQ(lookup_text(text.substr(0, length), &out), CacheOutcome::kMiss) << length;
  }
}

TEST_F(CacheReaderProperty, ByteFlipsMissOrDecodeAsTheDomDecodeWould) {
  const RunResult result = small_result();
  util::Rng rng(909);
  int hits = 0;
  for (const int indent : {-1, 2}) {
    const std::string text = dom_entry(result, indent);
    for (int i = 0; i < 1500; ++i) {
      std::string flipped = text;
      const auto flips = rng.uniform_int(1, 2);
      for (std::int64_t k = 0; k < flips; ++k) {
        flipped[rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1)] =
            static_cast<char>(rng.uniform_int(0, 255));
      }
      RunResult dom;
      const bool dom_hit = dom_reference::decode_cache_entry(flipped, canon_.canonical, &dom);
      RunResult streamed;
      const CacheOutcome outcome = lookup_text(flipped, &streamed);
      ASSERT_EQ(outcome == CacheOutcome::kDiskHit, dom_hit) << flipped;
      if (dom_hit) {
        ++hits;
        ASSERT_EQ(fingerprint(streamed), fingerprint(dom));
      }
    }
  }
  // Flips inside whitespace, strings and digits keep a valid entry.
  EXPECT_GT(hits, 0);
}

TEST_F(CacheReaderProperty, SubnormalsNowReadExactly) {
  RunResult result = small_result();
  result.mean_utilization = DBL_TRUE_MIN;
  result.completed[0].start_s = -std::nextafter(DBL_MIN, 0.0);
  RunResult out;
  ASSERT_EQ(lookup_text(dom_entry(result, -1), &out), CacheOutcome::kDiskHit);
  EXPECT_EQ(out.mean_utilization, DBL_TRUE_MIN);
  EXPECT_EQ(out.completed[0].start_s, -std::nextafter(DBL_MIN, 0.0));
}

TEST_F(CacheReaderProperty, NonFiniteValuesAreNeverServed) {
  RunResult result = small_result();
  result.end_time_s = std::numeric_limits<double>::infinity();
  RunResult out;
  EXPECT_EQ(lookup_text(dom_entry(result, -1), &out), CacheOutcome::kMiss);
}

}  // namespace
}  // namespace anor::engine::sweep
