#include "engine/dom_reference.hpp"

#include <exception>

#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "util/error.hpp"

namespace anor::engine::sweep::dom_reference {

namespace {

util::Json decimated_series_json(const util::TimeSeries& series, double decimation_s) {
  util::JsonArray t;
  util::JsonArray v;
  double next = series.empty() ? 0.0 : series.front_time();
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series.times()[i] + 1e-9 < next) continue;
    t.push_back(util::Json(series.times()[i]));
    v.push_back(util::Json(series.values()[i]));
    next = series.times()[i] + decimation_s;
  }
  util::JsonObject obj;
  obj["t_s"] = util::Json(std::move(t));
  obj["value"] = util::Json(std::move(v));
  return util::Json(std::move(obj));
}

util::Json series_json(const util::TimeSeries& series) {
  util::JsonArray t;
  util::JsonArray v;
  for (std::size_t i = 0; i < series.size(); ++i) {
    t.push_back(util::Json(series.times()[i]));
    v.push_back(util::Json(series.values()[i]));
  }
  util::JsonObject obj;
  obj["t_s"] = util::Json(std::move(t));
  obj["value"] = util::Json(std::move(v));
  return util::Json(std::move(obj));
}

util::TimeSeries series_from(const util::Json& json) {
  const util::JsonArray& t = json.at("t_s").as_array();
  const util::JsonArray& v = json.at("value").as_array();
  if (t.size() != v.size()) throw util::ConfigError("result cache: series size mismatch");
  util::TimeSeries series;
  for (std::size_t i = 0; i < t.size(); ++i) series.add(t[i].as_number(), v[i].as_number());
  return series;
}

util::Json report_json(const geopm::JobReport& report) {
  util::JsonObject obj;
  obj["job"] = util::Json(report.job_name);
  obj["agent"] = util::Json(report.agent_name);
  obj["nodes"] = util::Json(report.node_count);
  obj["runtime_s"] = util::Json(report.runtime_s);
  obj["compute_runtime_s"] = util::Json(report.compute_runtime_s);
  obj["package_energy_j"] = util::Json(report.package_energy_j);
  obj["average_power_w"] = util::Json(report.average_power_w);
  obj["epoch_count"] = util::Json(static_cast<double>(report.epoch_count));
  obj["average_cap_w"] = util::Json(report.average_cap_w);
  return util::Json(std::move(obj));
}

geopm::JobReport report_from(const util::Json& json) {
  geopm::JobReport report;
  report.job_name = json.at("job").as_string();
  report.agent_name = json.string_or("agent", "power_governor");
  report.node_count = static_cast<int>(json.at("nodes").as_int());
  report.runtime_s = json.at("runtime_s").as_number();
  report.compute_runtime_s = json.number_or("compute_runtime_s", 0.0);
  report.package_energy_j = json.at("package_energy_j").as_number();
  report.average_power_w = json.number_or("average_power_w", 0.0);
  report.epoch_count = json.at("epoch_count").as_int();
  report.average_cap_w = json.number_or("average_cap_w", 0.0);
  return report;
}

double canon_num(double d) { return d == 0.0 ? 0.0 : d; }

util::Json canon_series(const util::TimeSeries& series) {
  util::JsonArray t;
  util::JsonArray v;
  for (std::size_t i = 0; i < series.size(); ++i) {
    t.push_back(util::Json(canon_num(series.times()[i])));
    v.push_back(util::Json(canon_num(series.values()[i])));
  }
  util::JsonObject obj;
  obj["t_s"] = util::Json(std::move(t));
  obj["power_w"] = util::Json(std::move(v));
  return util::Json(std::move(obj));
}

util::Json canon_schedule(const workload::Schedule& schedule) {
  util::JsonArray jobs;
  for (const workload::JobRequest& job : schedule.jobs) {
    util::JsonObject j;
    j["id"] = util::Json(job.job_id);
    j["type"] = util::Json(job.type_name);
    j["submit_s"] = util::Json(canon_num(job.submit_time_s));
    j["nodes"] = util::Json(job.nodes);
    j["classified_as"] = util::Json(job.classified_as);
    j["walltime_hint_s"] = util::Json(canon_num(job.walltime_hint_s));
    jobs.push_back(util::Json(std::move(j)));
  }
  util::JsonObject obj;
  obj["duration_s"] = util::Json(canon_num(schedule.duration_s));
  obj["jobs"] = util::Json(std::move(jobs));
  return util::Json(std::move(obj));
}

}  // namespace

util::Json run_result_json(const RunResult& result, double series_decimation_s) {
  util::JsonArray jobs;
  for (const auto& job : result.completed) {
    util::JsonObject j;
    j["job_id"] = util::Json(job.request.job_id);
    j["type"] = util::Json(job.request.type_name);
    if (!job.request.classified_as.empty()) {
      j["classified_as"] = util::Json(job.request.classified_as);
    }
    j["nodes"] = util::Json(job.request.nodes);
    j["submit_s"] = util::Json(job.submit_s);
    j["start_s"] = util::Json(job.start_s);
    j["end_s"] = util::Json(job.end_s);
    j["slowdown"] = util::Json(job.slowdown());
    j["runtime_s"] = util::Json(job.report.runtime_s);
    j["compute_runtime_s"] = util::Json(job.report.compute_runtime_s);
    j["package_energy_j"] = util::Json(job.report.package_energy_j);
    j["average_power_w"] = util::Json(job.report.average_power_w);
    j["average_cap_w"] = util::Json(job.report.average_cap_w);
    j["epoch_count"] = util::Json(static_cast<double>(job.report.epoch_count));
    jobs.push_back(util::Json(std::move(j)));
  }

  util::JsonObject tracking;
  tracking["mean_error"] = util::Json(result.tracking.mean_error);
  tracking["p90_error"] = util::Json(result.tracking.p90_error);
  tracking["max_error"] = util::Json(result.tracking.max_error);
  tracking["fraction_within_30"] = util::Json(result.tracking.fraction_within_30);
  tracking["samples"] = util::Json(static_cast<double>(result.tracking.samples));

  util::JsonObject qos;
  qos["worst_p90_degradation"] = util::Json(result.qos.worst_quantile());
  qos["satisfied"] = util::Json(result.qos.satisfied());
  util::JsonObject per_type;
  for (const auto& [type, q] : result.qos.percentile_by_type(90.0)) {
    per_type[type] = util::Json(q);
  }
  qos["p90_by_type"] = util::Json(std::move(per_type));

  util::JsonObject root;
  root["schema"] = util::Json(std::string("anor.run_result.v1"));
  root["jobs"] = util::Json(std::move(jobs));
  root["tracking"] = util::Json(std::move(tracking));
  root["qos"] = util::Json(std::move(qos));
  root["end_time_s"] = util::Json(result.end_time_s);
  root["jobs_submitted"] = util::Json(result.jobs_submitted);
  root["jobs_completed"] = util::Json(result.jobs_completed);
  root["mean_utilization"] = util::Json(result.mean_utilization);
  root["power_w"] = decimated_series_json(result.power_w, series_decimation_s);
  if (!result.target_w.empty()) {
    root["target_w"] = decimated_series_json(result.target_w, series_decimation_s);
  }
  return util::Json(std::move(root));
}

util::Json run_result_to_cache_json(const RunResult& result) {
  util::JsonArray jobs;
  for (const CompletedJob& job : result.completed) {
    util::JsonObject j;
    j["id"] = util::Json(job.request.job_id);
    j["type"] = util::Json(job.request.type_name);
    j["submit_time_s"] = util::Json(job.request.submit_time_s);
    j["req_nodes"] = util::Json(job.request.nodes);
    j["classified_as"] = util::Json(job.request.classified_as);
    j["walltime_hint_s"] = util::Json(job.request.walltime_hint_s);
    j["report"] = report_json(job.report);
    j["submit_s"] = util::Json(job.submit_s);
    j["start_s"] = util::Json(job.start_s);
    j["end_s"] = util::Json(job.end_s);
    j["reference_runtime_s"] = util::Json(job.reference_runtime_s);
    jobs.push_back(util::Json(std::move(j)));
  }

  util::JsonObject tracking;
  tracking["mean_error"] = util::Json(result.tracking.mean_error);
  tracking["p90_error"] = util::Json(result.tracking.p90_error);
  tracking["max_error"] = util::Json(result.tracking.max_error);
  tracking["fraction_within_30"] = util::Json(result.tracking.fraction_within_30);
  tracking["samples"] = util::Json(static_cast<double>(result.tracking.samples));

  util::JsonArray qos_records;
  for (const sched::JobQosRecord& record : result.qos.records()) {
    util::JsonObject r;
    r["id"] = util::Json(record.job_id);
    r["type"] = util::Json(record.type_name);
    r["submit_s"] = util::Json(record.submit_s);
    r["start_s"] = util::Json(record.start_s);
    r["end_s"] = util::Json(record.end_s);
    r["t_min_s"] = util::Json(record.t_min_s);
    qos_records.push_back(util::Json(std::move(r)));
  }
  util::JsonObject qos;
  qos["limit"] = util::Json(result.qos.constraint().limit);
  qos["probability"] = util::Json(result.qos.constraint().probability);
  qos["records"] = util::Json(std::move(qos_records));

  util::JsonObject root;
  root["jobs"] = util::Json(std::move(jobs));
  root["power_w"] = series_json(result.power_w);
  root["target_w"] = series_json(result.target_w);
  root["tracking"] = util::Json(std::move(tracking));
  root["qos"] = util::Json(std::move(qos));
  root["end_time_s"] = util::Json(result.end_time_s);
  root["jobs_submitted"] = util::Json(result.jobs_submitted);
  root["jobs_completed"] = util::Json(result.jobs_completed);
  root["mean_utilization"] = util::Json(result.mean_utilization);
  return util::Json(std::move(root));
}

RunResult run_result_from_cache_json(const util::Json& json) {
  RunResult result;
  for (const util::Json& item : json.at("jobs").as_array()) {
    CompletedJob job;
    job.request.job_id = static_cast<int>(item.at("id").as_int());
    job.request.type_name = item.at("type").as_string();
    job.request.submit_time_s = item.at("submit_time_s").as_number();
    job.request.nodes = static_cast<int>(item.at("req_nodes").as_int());
    job.request.classified_as = item.at("classified_as").as_string();
    job.request.walltime_hint_s = item.at("walltime_hint_s").as_number();
    job.report = report_from(item.at("report"));
    job.submit_s = item.at("submit_s").as_number();
    job.start_s = item.at("start_s").as_number();
    job.end_s = item.at("end_s").as_number();
    job.reference_runtime_s = item.at("reference_runtime_s").as_number();
    result.completed.push_back(std::move(job));
  }
  result.power_w = series_from(json.at("power_w"));
  result.target_w = series_from(json.at("target_w"));

  const util::Json& tracking = json.at("tracking");
  result.tracking.mean_error = tracking.at("mean_error").as_number();
  result.tracking.p90_error = tracking.at("p90_error").as_number();
  result.tracking.max_error = tracking.at("max_error").as_number();
  result.tracking.fraction_within_30 = tracking.at("fraction_within_30").as_number();
  result.tracking.samples = static_cast<std::size_t>(tracking.at("samples").as_int());

  const util::Json& qos = json.at("qos");
  sched::QosConstraint constraint;
  constraint.limit = qos.at("limit").as_number();
  constraint.probability = qos.at("probability").as_number();
  result.qos = sched::QosEvaluator(constraint);
  for (const util::Json& item : qos.at("records").as_array()) {
    sched::JobQosRecord record;
    record.job_id = static_cast<int>(item.at("id").as_int());
    record.type_name = item.at("type").as_string();
    record.submit_s = item.at("submit_s").as_number();
    record.start_s = item.at("start_s").as_number();
    record.end_s = item.at("end_s").as_number();
    record.t_min_s = item.at("t_min_s").as_number();
    result.qos.add(std::move(record));
  }

  result.end_time_s = json.at("end_time_s").as_number();
  result.jobs_submitted = static_cast<int>(json.at("jobs_submitted").as_int());
  result.jobs_completed = static_cast<int>(json.at("jobs_completed").as_int());
  result.mean_utilization = json.at("mean_utilization").as_number();
  return result;
}

util::Json canonical_spec_json(const ScenarioSpec& spec) {
  util::JsonObject obj;
  obj["backend"] = util::Json(to_string(spec.backend));
  obj["policy"] = util::Json(to_string(spec.policy));
  const std::string identity = policy_identity_for_cache(spec.policy);
  if (!identity.empty()) obj["policy_identity"] = util::Json(identity);
  obj["schedule"] = canon_schedule(spec.schedule);
  obj["static_budget_w"] = spec.static_budget_w
                               ? util::Json(canon_num(*spec.static_budget_w))
                               : util::Json(nullptr);
  obj["targets"] = spec.targets.empty() ? util::Json(nullptr) : canon_series(spec.targets);
  obj["node_count"] = util::Json(spec.node_count);
  obj["perf_variation_sigma"] = util::Json(canon_num(spec.perf_variation_sigma));
  obj["seed"] = util::Json(std::to_string(spec.seed));
  obj["tracking_warmup_s"] = util::Json(canon_num(spec.tracking_warmup_s));
  obj["tracking_reserve_w"] = util::Json(canon_num(spec.tracking_reserve_w));
  return util::Json(std::move(obj));
}

util::Json cache_entry_json(const ScenarioSpec& spec, const RunResult& result) {
  const std::string canonical = canonical_spec_json(spec).dump();
  util::JsonObject entry;
  entry["schema"] = util::Json(std::string("anor.result_cache.v1"));
  entry["epoch"] = util::Json(std::string(kCacheEpoch));
  entry["key"] = util::Json(canonical_spec_key(spec));
  entry["spec_canonical"] = util::Json(canonical);
  entry["result"] = dom_reference::run_result_to_cache_json(result);
  return util::Json(std::move(entry));
}

bool decode_cache_entry(const std::string& text, const std::string& spec_canonical,
                        RunResult* result) {
  try {
    const util::Json entry = util::Json::parse(text);
    if (entry.string_or("schema", "") != "anor.result_cache.v1" ||
        entry.string_or("epoch", "") != kCacheEpoch ||
        entry.string_or("spec_canonical", "") != spec_canonical) {
      return false;
    }
    *result = dom_reference::run_result_from_cache_json(entry.at("result"));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

util::Json sweep_report_json(const SweepReport& report) {
  util::JsonArray cells;
  for (const SweepCellResult& cell : report.cells) {
    util::JsonObject c;
    c["index"] = util::Json(cell.cell.index);
    c["name"] = util::Json(cell.cell.name);
    c["spec_name"] = util::Json(cell.spec_name);
    c["key"] = util::Json(cell.key);
    c["cache"] = util::Json(std::string(to_string(cell.cache)));
    c["wall_s"] = util::Json(cell.wall_s);
    c["result"] = dom_reference::run_result_json(cell.result);
    cells.push_back(util::Json(std::move(c)));
  }

  util::JsonObject stats;
  stats["lookups"] = util::Json(report.cache_stats.lookups);
  stats["disk_hits"] = util::Json(report.cache_stats.disk_hits);
  stats["misses"] = util::Json(report.cache_stats.misses);
  stats["stores"] = util::Json(report.cache_stats.stores);
  stats["invalidated"] = util::Json(report.cache_stats.invalidated);
  stats["hit_rate"] = util::Json(report.cache_stats.hit_rate());

  util::JsonObject root;
  root["schema"] = util::Json(std::string("anor.sweep_result.v1"));
  root["grid"] = util::Json(report.grid_name);
  root["cells_total"] = util::Json(report.cells.size());
  root["cells_computed"] = util::Json(report.cells_computed);
  root["cache_hits"] = util::Json(report.cache_hits);
  root["wall_s"] = util::Json(report.wall_s);
  root["cache_stats"] = util::Json(std::move(stats));
  root["cells"] = util::Json(std::move(cells));
  return util::Json(std::move(root));
}

util::Json sweep_results_deterministic_json(const SweepReport& report) {
  util::JsonArray cells;
  for (const SweepCellResult& cell : report.cells) {
    util::JsonObject c;
    c["index"] = util::Json(cell.cell.index);
    c["name"] = util::Json(cell.cell.name);
    c["key"] = util::Json(cell.key);
    c["result"] = dom_reference::run_result_to_cache_json(cell.result);
    cells.push_back(util::Json(std::move(c)));
  }
  util::JsonObject root;
  root["schema"] = util::Json(std::string("anor.sweep_results.v1"));
  root["epoch"] = util::Json(std::string(kCacheEpoch));
  root["grid"] = util::Json(report.grid_name);
  root["cells"] = util::Json(std::move(cells));
  return util::Json(std::move(root));
}

}  // namespace anor::engine::sweep::dom_reference
