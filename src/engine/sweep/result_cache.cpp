#include "engine/sweep/result_cache.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include "engine/sweep/spec_canon.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace anor::engine::sweep {

namespace {

constexpr char kCacheSchema[] = "anor.result_cache.v1";

// --- reading: straight from the text into a RunResult ---------------------
//
// Field for field what a util::Json decode accepted: required and optional
// keys, integers rounded with llround, any key order and whitespace.

int read_int(util::JsonCursor& in) { return static_cast<int>(std::llround(in.number())); }

util::TimeSeries read_series(util::JsonCursor& in) {
  static constexpr std::array<std::string_view, 2> kKeys = {"t_s", "value"};
  std::vector<double> columns[2];
  in.read_object(kKeys, 0b11, [&](std::size_t field) {
    in.begin_array();
    while (in.next_element()) columns[field].push_back(in.number());
  });
  if (columns[0].size() != columns[1].size()) {
    throw util::ConfigError("result cache: series size mismatch");
  }
  util::TimeSeries series;
  for (std::size_t i = 0; i < columns[0].size(); ++i) series.add(columns[0][i], columns[1][i]);
  return series;
}

CompletedJob read_job(util::JsonCursor& in) {
  static constexpr std::array<std::string_view, 11> kKeys = {
      "classified_as", "end_s",    "id",      "reference_runtime_s", "report",
      "req_nodes",     "start_s",  "submit_s", "submit_time_s",      "type",
      "walltime_hint_s"};
  CompletedJob job;
  in.read_object(kKeys, (1u << kKeys.size()) - 1, [&](std::size_t field) {
    switch (field) {
      case 0: in.string(job.request.classified_as); break;
      case 1: job.end_s = in.number(); break;
      case 2: job.request.job_id = read_int(in); break;
      case 3: job.reference_runtime_s = in.number(); break;
      case 4: job.report = geopm::JobReport::read_json(in); break;
      case 5: job.request.nodes = read_int(in); break;
      case 6: job.start_s = in.number(); break;
      case 7: job.submit_s = in.number(); break;
      case 8: job.request.submit_time_s = in.number(); break;
      case 9: in.string(job.request.type_name); break;
      case 10: job.request.walltime_hint_s = in.number(); break;
    }
  });
  return job;
}

sched::JobQosRecord read_qos_record(util::JsonCursor& in) {
  static constexpr std::array<std::string_view, 6> kKeys = {"end_s",    "id",      "start_s",
                                                            "submit_s", "t_min_s", "type"};
  sched::JobQosRecord record;
  in.read_object(kKeys, (1u << kKeys.size()) - 1, [&](std::size_t field) {
    switch (field) {
      case 0: record.end_s = in.number(); break;
      case 1: record.job_id = read_int(in); break;
      case 2: record.start_s = in.number(); break;
      case 3: record.submit_s = in.number(); break;
      case 4: record.t_min_s = in.number(); break;
      case 5: in.string(record.type_name); break;
    }
  });
  return record;
}

sched::QosEvaluator read_qos(util::JsonCursor& in) {
  static constexpr std::array<std::string_view, 3> kKeys = {"limit", "probability", "records"};
  sched::QosConstraint constraint;
  std::vector<sched::JobQosRecord> records;
  in.read_object(kKeys, 0b111, [&](std::size_t field) {
    switch (field) {
      case 0: constraint.limit = in.number(); break;
      case 1: constraint.probability = in.number(); break;
      case 2:
        in.begin_array();
        while (in.next_element()) records.push_back(read_qos_record(in));
        break;
    }
  });
  sched::QosEvaluator qos(constraint);
  for (sched::JobQosRecord& record : records) qos.add(std::move(record));
  return qos;
}

util::TrackingErrorStats read_tracking(util::JsonCursor& in) {
  static constexpr std::array<std::string_view, 5> kKeys = {
      "fraction_within_30", "max_error", "mean_error", "p90_error", "samples"};
  util::TrackingErrorStats tracking;
  in.read_object(kKeys, 0b11111, [&](std::size_t field) {
    switch (field) {
      case 0: tracking.fraction_within_30 = in.number(); break;
      case 1: tracking.max_error = in.number(); break;
      case 2: tracking.mean_error = in.number(); break;
      case 3: tracking.p90_error = in.number(); break;
      case 4: tracking.samples = static_cast<std::size_t>(std::llround(in.number())); break;
    }
  });
  return tracking;
}

RunResult read_run_result(util::JsonCursor& in) {
  static constexpr std::array<std::string_view, 9> kKeys = {
      "end_time_s", "jobs", "jobs_completed", "jobs_submitted", "mean_utilization",
      "power_w",    "qos",  "target_w",       "tracking"};
  RunResult result;
  in.read_object(kKeys, (1u << kKeys.size()) - 1, [&](std::size_t field) {
    switch (field) {
      case 0: result.end_time_s = in.number(); break;
      case 1:
        in.begin_array();
        while (in.next_element()) result.completed.push_back(read_job(in));
        break;
      case 2: result.jobs_completed = read_int(in); break;
      case 3: result.jobs_submitted = read_int(in); break;
      case 4: result.mean_utilization = in.number(); break;
      case 5: result.power_w = read_series(in); break;
      case 6: result.qos = read_qos(in); break;
      case 7: result.target_w = read_series(in); break;
      case 8: result.tracking = read_tracking(in); break;
    }
  });
  return result;
}

/// Decode a disk entry.  True, with `result` filled, only when its schema,
/// epoch and canonical spec all match; false for a stale or foreign
/// entry; throws when it is malformed.
bool read_cache_entry(std::string_view text, const std::string& canonical, RunResult* result) {
  static constexpr std::array<std::string_view, 4> kKeys = {"epoch", "result", "schema",
                                                            "spec_canonical"};
  const std::string_view expected[] = {kCacheEpoch, "", kCacheSchema, canonical};
  util::JsonCursor in(text);
  RunResult decoded;
  bool current = true;
  std::string field_text;
  in.read_object(kKeys, 0b1111, [&](std::size_t field) {
    if (field != 1) {
      in.string(field_text);
      if (field_text != expected[field]) current = false;
    } else if (current) {
      decoded = read_run_result(in);
    } else {
      in.skip_value();  // a stale epoch comes first in the file: skip the decode
    }
  });
  in.finish();
  if (!current) return false;
  *result = std::move(decoded);
  return true;
}

}  // namespace

const char* to_string(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kOff: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kMemoryHit: return "memory_hit";
    case CacheOutcome::kDiskHit: return "disk_hit";
  }
  return "?";
}

const char* cache_state(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kOff: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kMemoryHit:
    case CacheOutcome::kDiskHit: return "hit";
  }
  return "?";
}

void write_run_result_cache_json(util::JsonWriter& out, const RunResult& result) {
  out.begin_object();
  out.key("end_time_s").value(result.end_time_s);
  out.key("jobs").begin_array();
  for (const CompletedJob& job : result.completed) {
    out.begin_object();
    out.key("classified_as").value(job.request.classified_as);
    out.key("end_s").value(job.end_s);
    out.key("id").value(job.request.job_id);
    out.key("reference_runtime_s").value(job.reference_runtime_s);
    out.key("report");
    job.report.write_json(out);
    out.key("req_nodes").value(job.request.nodes);
    out.key("start_s").value(job.start_s);
    out.key("submit_s").value(job.submit_s);
    out.key("submit_time_s").value(job.request.submit_time_s);
    out.key("type").value(job.request.type_name);
    out.key("walltime_hint_s").value(job.request.walltime_hint_s);
    out.end_object();
  }
  out.end_array();
  out.key("jobs_completed").value(result.jobs_completed);
  out.key("jobs_submitted").value(result.jobs_submitted);
  out.key("mean_utilization").value(result.mean_utilization);
  out.key("power_w");
  write_series_json(out, result.power_w, 0.0);
  out.key("qos").begin_object();
  out.key("limit").value(result.qos.constraint().limit);
  out.key("probability").value(result.qos.constraint().probability);
  out.key("records").begin_array();
  for (const sched::JobQosRecord& record : result.qos.records()) {
    out.begin_object();
    out.key("end_s").value(record.end_s);
    out.key("id").value(record.job_id);
    out.key("start_s").value(record.start_s);
    out.key("submit_s").value(record.submit_s);
    out.key("t_min_s").value(record.t_min_s);
    out.key("type").value(record.type_name);
    out.end_object();
  }
  out.end_array();
  out.end_object();
  out.key("target_w");
  write_series_json(out, result.target_w, 0.0);
  out.key("tracking");
  write_tracking_json(out, result.tracking);
  out.end_object();
}

util::JsonText run_result_to_cache_json(const RunResult& result) {
  util::JsonWriter out;
  write_run_result_cache_json(out, result);
  return out.finish();
}

std::uint64_t result_hash(const RunResult& result) {
  return util::fnv1a(run_result_to_cache_json(result).dump(), util::kFnv1aRecordBasis);
}

RunResult run_result_from_cache_json(std::string_view text) {
  util::JsonCursor in(text);
  RunResult result = read_run_result(in);
  in.finish();
  return result;
}

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {}

std::string ResultCache::entry_path(const std::string& key) const {
  return config_.dir + "/" + key + ".json";
}

CacheOutcome ResultCache::lookup(const ScenarioSpec& spec, RunResult* result) {
  if (!config_.enabled()) return CacheOutcome::kOff;
  return lookup(canonicalize_spec(spec), result);
}

CacheOutcome ResultCache::lookup(const CanonicalSpec& canon, RunResult* result) {
  if (!config_.enabled()) return CacheOutcome::kOff;
  ANOR_PROF_SCOPE("cache.lookup");
  std::shared_ptr<const MemoryEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    if (config_.memory) {
      const auto it = memory_.find(canon.key);
      if (it != memory_.end()) entry = it->second;
    }
  }
  if (entry != nullptr && entry->spec_canonical == canon.canonical) {
    *result = entry->result;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.memory_hits;
    return CacheOutcome::kMemoryHit;
  }
  const DiskRead read = config_.disk ? lookup_disk(canon, result) : DiskRead::kAbsent;
  if (read == DiskRead::kHit && config_.memory) {
    entry = std::make_shared<const MemoryEntry>(MemoryEntry{canon.canonical, *result});
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (read == DiskRead::kHit) {
    if (config_.memory) memory_[canon.key] = std::move(entry);
    ++stats_.disk_hits;
    return CacheOutcome::kDiskHit;
  }
  if (read == DiskRead::kInvalid) ++stats_.invalidated;
  ++stats_.misses;
  return CacheOutcome::kMiss;
}

ResultCache::DiskRead ResultCache::lookup_disk(const CanonicalSpec& canon,
                                               RunResult* result) const {
  const std::string path = entry_path(canon.key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return DiskRead::kAbsent;
  try {
    // Stale epoch (the engine's golden hashes moved), a foreign schema,
    // or a key collision: never serve it.  Stale entries are left for the
    // next store() to overwrite.
    return read_cache_entry(util::load_text_file(path), canon.canonical, result)
               ? DiskRead::kHit
               : DiskRead::kInvalid;
  } catch (const std::exception& e) {
    // Truncated/corrupt entries read as misses, not failures.
    util::log_warn("sweep", "result cache: dropping unreadable entry " + path + " (" +
                               e.what() + ")");
    return DiskRead::kInvalid;
  }
}

void ResultCache::store(const ScenarioSpec& spec, const RunResult& result) {
  if (!config_.enabled()) return;
  store(canonicalize_spec(spec), result);
}

void ResultCache::store(const CanonicalSpec& canon, const RunResult& result) {
  if (!config_.enabled()) return;
  ANOR_PROF_SCOPE("cache.store");
  std::shared_ptr<const MemoryEntry> entry;
  if (config_.memory) {
    entry = std::make_shared<const MemoryEntry>(MemoryEntry{canon.canonical, result});
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    if (entry != nullptr) memory_[canon.key] = std::move(entry);
  }
  if (config_.disk) store_disk(canon, result);
}

void ResultCache::store_disk(const CanonicalSpec& canon, const RunResult& result) {
  util::JsonWriter out;
  out.begin_object();
  out.key("epoch").value(kCacheEpoch);
  out.key("key").value(canon.key);
  out.key("result");
  write_run_result_cache_json(out, result);
  out.key("schema").value(kCacheSchema);
  out.key("spec_canonical").value(canon.canonical);
  out.end_object();

  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  // Atomic publish: readers (this process or another) either see a
  // complete entry or none.  The tmp name is unique to this write across
  // every cache object in the process (and the pid separates processes),
  // so concurrent writers of one key never interleave bytes.  A failed
  // write degrades to "no disk cache", never to a corrupt hit.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string path = entry_path(canon.key);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
  try {
    util::save_json_file(tmp, out.finish());
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      util::log_warn("sweep", "result cache: publish failed for " + canon.key + ": " +
                                  ec.message());
      std::filesystem::remove(tmp, ec);
    }
  } catch (const std::exception& e) {
    util::log_warn("sweep", "result cache: write failed for " + canon.key + ": " + e.what());
    std::filesystem::remove(tmp, ec);
  }
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace anor::engine::sweep
