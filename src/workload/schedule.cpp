#include "workload/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/error.hpp"

namespace anor::workload {

util::Json Schedule::to_json() const {
  util::JsonArray arr;
  for (const JobRequest& job : jobs) {
    util::JsonObject obj;
    obj["id"] = util::Json(job.job_id);
    obj["type"] = util::Json(job.type_name);
    obj["submit_s"] = util::Json(job.submit_time_s);
    obj["nodes"] = util::Json(job.nodes);
    if (!job.classified_as.empty()) obj["classified_as"] = util::Json(job.classified_as);
    if (job.walltime_hint_s > 0.0) obj["walltime_hint_s"] = util::Json(job.walltime_hint_s);
    arr.push_back(util::Json(std::move(obj)));
  }
  util::JsonObject root;
  root["duration_s"] = util::Json(duration_s);
  root["jobs"] = util::Json(std::move(arr));
  return util::Json(std::move(root));
}

Schedule Schedule::from_json(const util::Json& json) {
  Schedule schedule;
  schedule.duration_s = json.number_or("duration_s", 0.0);
  for (const util::Json& item : json.at("jobs").as_array()) {
    JobRequest job;
    job.job_id = util::checked_integer<int>(item.at("id"), "id");
    job.type_name = item.at("type").as_string();
    job.submit_time_s = item.at("submit_s").as_number();
    job.nodes = util::checked_integer<int>(item.at("nodes"), "nodes");
    job.classified_as = item.string_or("classified_as", "");
    job.walltime_hint_s = item.number_or("walltime_hint_s", 0.0);
    schedule.jobs.push_back(std::move(job));
  }
  std::sort(schedule.jobs.begin(), schedule.jobs.end(),
            [](const JobRequest& a, const JobRequest& b) {
              return a.submit_time_s < b.submit_time_s;
            });
  return schedule;
}

void Schedule::save(const std::string& path) const { util::save_json_file(path, to_json()); }

Schedule Schedule::load(const std::string& path) {
  return from_json(util::load_json_file(path));
}

Schedule generate_poisson_schedule(const std::vector<JobType>& types,
                                   const PoissonScheduleConfig& config, util::Rng rng) {
  if (types.empty()) throw std::invalid_argument("generate_poisson_schedule: no job types");
  if (config.utilization <= 0.0 || config.duration_s <= 0.0) {
    throw std::invalid_argument("generate_poisson_schedule: bad utilization or duration");
  }
  std::vector<double> weights = config.type_weights;
  if (weights.empty()) weights.assign(types.size(), 1.0);
  if (weights.size() != types.size()) {
    throw std::invalid_argument("generate_poisson_schedule: weight count mismatch");
  }
  const double weight_total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (weight_total <= 0.0) {
    throw std::invalid_argument("generate_poisson_schedule: non-positive weights");
  }

  if (config.diurnal_amplitude < 0.0 || config.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument("generate_poisson_schedule: amplitude must be in [0, 1)");
  }

  // Target node-seconds per second, split across types by weight:
  //   lambda_j * T_j * n_j = eta * N * w_j / sum(w).
  const double target = config.utilization * config.cluster_nodes;
  constexpr double kTwoPi = 6.283185307179586;
  const auto rate_factor = [&config, kTwoPi](double t) {
    if (config.diurnal_amplitude <= 0.0) return 1.0;
    return 1.0 + config.diurnal_amplitude *
                     std::sin(kTwoPi * (t / config.diurnal_period_s - 0.25));
  };

  Schedule schedule;
  schedule.duration_s = config.duration_s;
  int next_id = 0;
  for (std::size_t j = 0; j < types.size(); ++j) {
    const JobType& type = types[j];
    const double share = target * weights[j] / weight_total;
    const double node_seconds = type.min_exec_time_s() * type.nodes;
    const double lambda = share / node_seconds;
    // Thinning (Lewis-Shedler): draw at the peak rate, accept with
    // probability lambda(t)/lambda_max.
    const double lambda_max = lambda * (1.0 + config.diurnal_amplitude);
    util::Rng stream = rng.child(type.name);
    double t = stream.exponential(lambda_max);
    while (t < config.duration_s) {
      // Skip the acceptance draw entirely in the homogeneous case so that
      // existing seeded schedules stay byte-identical.
      if (config.diurnal_amplitude <= 0.0 ||
          stream.uniform(0.0, 1.0 + config.diurnal_amplitude) <= rate_factor(t)) {
        JobRequest job;
        job.job_id = next_id++;
        job.type_name = type.name;
        job.submit_time_s = t;
        job.nodes = type.nodes;
        schedule.jobs.push_back(std::move(job));
      }
      t += stream.exponential(lambda_max);
    }
  }
  std::sort(schedule.jobs.begin(), schedule.jobs.end(),
            [](const JobRequest& a, const JobRequest& b) {
              return a.submit_time_s < b.submit_time_s;
            });
  // Re-number in submission order so IDs are stable across runs.
  for (std::size_t i = 0; i < schedule.jobs.size(); ++i) {
    schedule.jobs[i].job_id = static_cast<int>(i);
  }
  return schedule;
}

void misclassify(Schedule& schedule, const std::string& true_type,
                 const std::string& classified_as) {
  for (JobRequest& job : schedule.jobs) {
    if (job.type_name == true_type) job.classified_as = classified_as;
  }
}

}  // namespace anor::workload
