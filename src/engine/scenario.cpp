#include "engine/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "telemetry/prof/prof.hpp"
#include "util/error.hpp"
#include "workload/regulation.hpp"

namespace anor::engine {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kEmulated: return "emulated";
    case Backend::kTabular: return "tabular";
  }
  return "?";
}

Backend backend_from_string(const std::string& name) {
  if (name == "emulated") return Backend::kEmulated;
  if (name == "tabular") return Backend::kTabular;
  throw util::ConfigError("unknown backend '" + name + "' (emulated|tabular)");
}

std::string to_string(const PolicyRef& policy) { return policy.name; }

// policy_from_string / expects_misclassification / policy_ref_from_json
// live in policy_registry.cpp — they resolve through the registry.

std::map<std::string, util::RunningStats> RunResult::slowdown_by_type() const {
  std::map<std::string, util::RunningStats> by_type;
  for (const CompletedJob& job : completed) {
    by_type[job.request.type_name].add(job.slowdown());
  }
  return by_type;
}

namespace {

/// The slow half of validate()'s node check, for a job whose `nodes` is
/// not in 1..node_count.
void check_job_nodes(const workload::JobRequest& job, int node_count) {
  const std::string id = "ScenarioSpec: job id " + std::to_string(job.job_id);
  if (job.nodes < 0) {
    throw util::ConfigError(id + " asks for " + std::to_string(job.nodes) +
                            " nodes; nodes must be >= 0 (0 = the type's default)");
  }
  int nodes = job.nodes;
  if (nodes == 0) {
    // An unknown type is the backend's to report.
    const std::optional<workload::JobType> type = workload::try_find_job_type(job.type_name);
    if (!type) return;
    nodes = type->nodes;
  }
  if (nodes > node_count) {
    throw util::ConfigError(id + " needs " + std::to_string(nodes) +
                            " nodes but the cluster has " + std::to_string(node_count));
  }
}

}  // namespace

void ScenarioSpec::validate() const {
  if (static_budget_w && !targets.empty()) {
    throw util::ConfigError("ScenarioSpec: set either static_budget_w or targets, not both");
  }
  if (node_count <= 0) throw util::ConfigError("ScenarioSpec: node_count must be positive");
  if (backend == Backend::kTabular && schedule.jobs.empty()) {
    throw util::ConfigError("ScenarioSpec: tabular backend needs a non-empty schedule");
  }
  // The tabular job table indexes rows by id, and fault plans read job
  // id -1 as "the lowest-numbered running job".
  int max_id = 0;
  for (const workload::JobRequest& job : schedule.jobs) {
    if (job.job_id < 0) {
      throw util::ConfigError("ScenarioSpec: job id " + std::to_string(job.job_id) +
                              " is negative; ids must be >= 0");
    }
    max_id = std::max(max_id, job.job_id);
    // One compare passes every job that asks for 1..node_count nodes:
    // 0 (the type's default) and negative counts wrap past node_count.
    if (static_cast<unsigned>(job.nodes) - 1u >= static_cast<unsigned>(node_count)) {
      check_job_nodes(job, node_count);
    }
  }
  // A repeated id would make the tabular backend lose a job that the
  // emulated one runs.  Dense ids (the generators number 0..n-1) are
  // checked with a flat seen-array, sparse ones with a sorted copy.
  const auto duplicate = [](int id) {
    return util::ConfigError("ScenarioSpec: job id " + std::to_string(id) +
                             " appears more than once; ids must be unique");
  };
  const std::size_t jobs = schedule.jobs.size();
  if (static_cast<std::size_t>(max_id) < 4 * jobs + 64) {
    std::vector<char> seen(static_cast<std::size_t>(max_id) + 1, 0);
    for (const workload::JobRequest& job : schedule.jobs) {
      char& mark = seen[static_cast<std::size_t>(job.job_id)];
      if (mark != 0) throw duplicate(job.job_id);
      mark = 1;
    }
  } else {
    std::vector<int> ids;
    ids.reserve(jobs);
    for (const workload::JobRequest& job : schedule.jobs) ids.push_back(job.job_id);
    std::sort(ids.begin(), ids.end());
    const auto repeat = std::adjacent_find(ids.begin(), ids.end());
    if (repeat != ids.end()) throw duplicate(*repeat);
  }
}

util::Json scenario_spec_to_json(const ScenarioSpec& spec) {
  util::JsonObject obj;
  obj["schema"] = util::Json(std::string("anor.scenario.v1"));
  obj["name"] = util::Json(spec.name);
  obj["backend"] = util::Json(to_string(spec.backend));
  obj["schedule"] = spec.schedule.to_json();
  obj["policy"] = policy_ref_to_json(spec.policy);
  if (spec.static_budget_w) obj["static_budget_w"] = util::Json(*spec.static_budget_w);
  if (!spec.targets.empty()) obj["targets"] = workload::power_targets_to_json(spec.targets);
  obj["node_count"] = util::Json(spec.node_count);
  obj["perf_variation_sigma"] = util::Json(spec.perf_variation_sigma);
  obj["seed"] = util::Json(static_cast<double>(spec.seed));
  obj["tracking_warmup_s"] = util::Json(spec.tracking_warmup_s);
  obj["tracking_reserve_w"] = util::Json(spec.tracking_reserve_w);
  if (!spec.artifact_dir.empty()) {
    obj["artifact_dir"] = util::Json(spec.artifact_dir);
    obj["artifact_cadence_s"] = util::Json(spec.artifact_cadence_s);
  }
  return util::Json(std::move(obj));
}

ScenarioSpec scenario_fields_from_json(const util::Json& json) {
  ScenarioSpec spec;
  spec.name = json.string_or("name", spec.name);
  spec.backend = backend_from_string(json.string_or("backend", "emulated"));
  if (json.contains("schedule")) {
    spec.schedule = workload::Schedule::from_json(json.at("schedule"));
  }
  if (json.contains("policy")) spec.policy = policy_ref_from_json(json.at("policy"));
  if (json.contains("static_budget_w")) {
    spec.static_budget_w = json.at("static_budget_w").as_number();
  }
  if (json.contains("targets")) spec.targets = workload::power_targets_from_json(json.at("targets"));
  spec.node_count = util::checked_integer_or(json, "node_count", spec.node_count);
  spec.perf_variation_sigma =
      json.number_or("perf_variation_sigma", spec.perf_variation_sigma);
  spec.seed = util::checked_integer_or<std::uint64_t>(json, "seed", 1);
  spec.tracking_warmup_s = json.number_or("tracking_warmup_s", spec.tracking_warmup_s);
  spec.tracking_reserve_w = json.number_or("tracking_reserve_w", spec.tracking_reserve_w);
  spec.artifact_dir = json.string_or("artifact_dir", "");
  spec.artifact_cadence_s = json.number_or("artifact_cadence_s", spec.artifact_cadence_s);
  return spec;
}

ScenarioSpec scenario_spec_from_json(const util::Json& json) {
  ScenarioSpec spec = scenario_fields_from_json(json);
  spec.validate();
  return spec;
}

void finalize_tracking(RunResult& result, double reserve_w, double warmup_s) {
  if (result.target_w.empty() || result.power_w.empty()) return;
  util::TimeSeries measured;
  if (warmup_s > 0.0) {
    for (std::size_t i = 0; i < result.power_w.size(); ++i) {
      const double t = result.power_w.times()[i];
      if (t >= warmup_s) measured.add(t, result.power_w.values()[i]);
    }
    if (measured.empty()) measured = result.power_w;
  } else {
    measured = result.power_w;
  }
  double reserve = reserve_w;
  if (reserve <= 0.0) {
    // Half the observed target span, floored so a flat target still
    // normalizes sanely.
    double lo = result.target_w.values().front();
    double hi = lo;
    for (double v : result.target_w.values()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    reserve = std::max((hi - lo) / 2.0, 1.0);
  }
  result.tracking = util::tracking_error(measured, result.target_w, reserve);
}

void write_series_json(util::JsonWriter& out, const util::TimeSeries& series,
                       double decimation_s) {
  const auto write_column = [&](const std::vector<double>& column) {
    out.begin_array();
    double next = series.empty() ? 0.0 : series.front_time();
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (series.times()[i] + 1e-9 < next) continue;
      out.value(column[i]);
      next = series.times()[i] + decimation_s;
    }
    out.end_array();
  };
  out.begin_object();
  out.key("t_s");
  write_column(series.times());
  out.key("value");
  write_column(series.values());
  out.end_object();
}

void write_tracking_json(util::JsonWriter& out, const util::TrackingErrorStats& tracking) {
  out.begin_object();
  out.key("fraction_within_30").value(tracking.fraction_within_30);
  out.key("max_error").value(tracking.max_error);
  out.key("mean_error").value(tracking.mean_error);
  out.key("p90_error").value(tracking.p90_error);
  out.key("samples").value(tracking.samples);
  out.end_object();
}

void write_run_result_json(util::JsonWriter& out, const RunResult& result,
                           double series_decimation_s) {
  ANOR_PROF_SCOPE("export.run_result");
  out.begin_object();
  out.key("end_time_s").value(result.end_time_s);
  out.key("jobs").begin_array();
  for (const CompletedJob& job : result.completed) {
    out.begin_object();
    out.key("average_cap_w").value(job.report.average_cap_w);
    out.key("average_power_w").value(job.report.average_power_w);
    if (!job.request.classified_as.empty()) {
      out.key("classified_as").value(job.request.classified_as);
    }
    out.key("compute_runtime_s").value(job.report.compute_runtime_s);
    out.key("end_s").value(job.end_s);
    out.key("epoch_count").value(job.report.epoch_count);
    out.key("job_id").value(job.request.job_id);
    out.key("nodes").value(job.request.nodes);
    out.key("package_energy_j").value(job.report.package_energy_j);
    out.key("runtime_s").value(job.report.runtime_s);
    out.key("slowdown").value(job.slowdown());
    out.key("start_s").value(job.start_s);
    out.key("submit_s").value(job.submit_s);
    out.key("type").value(job.request.type_name);
    out.end_object();
  }
  out.end_array();
  out.key("jobs_completed").value(result.jobs_completed);
  out.key("jobs_submitted").value(result.jobs_submitted);
  out.key("mean_utilization").value(result.mean_utilization);
  out.key("power_w");
  write_series_json(out, result.power_w, series_decimation_s);

  const sched::QosSummary qos = result.qos.summarize(90.0);
  out.key("qos").begin_object();
  out.key("p90_by_type").begin_object();
  for (const auto& [type, q] : qos.percentile_by_type) out.key(type).value(q);
  out.end_object();
  out.key("satisfied").value(qos.satisfied);
  out.key("worst_p90_degradation").value(qos.worst_quantile);
  out.end_object();

  out.key("schema").value("anor.run_result.v1");
  if (!result.target_w.empty()) {
    out.key("target_w");
    write_series_json(out, result.target_w, series_decimation_s);
  }
  out.key("tracking");
  write_tracking_json(out, result.tracking);
  out.end_object();
}

util::JsonText run_result_json(const RunResult& result, double series_decimation_s) {
  util::JsonWriter out;
  // ~240 bytes per job record; one allocation for job-dense runs.
  out.reserve(4096 + 256 * result.completed.size());
  write_run_result_json(out, result, series_decimation_s);
  return out.finish();
}

void save_run_result(const std::string& path, const RunResult& result) {
  util::JsonWriter out(2);
  write_run_result_json(out, result);
  util::save_json_file(path, out.finish());
}

ParitySummary parity_summary(const RunResult& result) {
  util::RunningStats slowdowns;
  for (const CompletedJob& job : result.completed) slowdowns.add(job.slowdown());
  return {slowdowns.mean(), result.tracking.p90_error, result.qos.satisfied()};
}

ParityGaps parity_gaps(const ParitySummary& emulated, const ParitySummary& tabular) {
  return {std::abs(emulated.p90_tracking - tabular.p90_tracking),
          std::abs(emulated.mean_slowdown - tabular.mean_slowdown),
          emulated.qos_ok == tabular.qos_ok};
}

}  // namespace anor::engine
