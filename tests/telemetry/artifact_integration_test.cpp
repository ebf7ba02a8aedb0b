// Acceptance test for the telemetry tentpole: a closed-loop experiment
// must leave behind a loadable Chrome trace and a CSV/JSON time series
// carrying the control-plane's vital signs — per-package power-limit
// writes, achieved cluster power, per-job epoch counts and budgets, and
// transport message counts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace anor::engine {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fast, noise-free emulation knobs for a 4-node closed loop.
cluster::EmulationConfig small_base() {
  cluster::EmulationConfig base;
  base.node.package.response_tau_s = 0.0;
  base.step_s = 0.25;
  base.controller.kernel.time_noise_sigma = 0.0;
  base.controller.kernel.power_noise_sigma_w = 0.0;
  base.scheduler.power_aware_admission = false;
  base.manager.control_period_s = 0.5;
  base.endpoint.period_s = 0.5;
  return base;
}

ScenarioSpec small_spec(const std::string& artifact_dir) {
  ScenarioSpec spec;
  spec.name = "experiment";
  spec.node_count = 4;

  workload::JobRequest bt;
  bt.job_id = 0;
  bt.type_name = "bt.D.x";
  bt.submit_time_s = 0.0;
  bt.nodes = 2;
  workload::JobRequest sp;
  sp.job_id = 1;
  sp.type_name = "sp.D.x";
  sp.submit_time_s = 0.0;
  sp.nodes = 2;
  spec.schedule.jobs = {bt, sp};
  spec.schedule.duration_s = 1.0;

  spec.static_budget_w = 4 * 0.75 * 280.0;
  spec.artifact_dir = artifact_dir;
  spec.artifact_cadence_s = 1.0;
  return spec;
}

double metric_value(const util::Json& metrics, const std::string& key) {
  return metrics.at(key).at("value").as_number();
}

/// Largest value among metrics whose key starts with `prefix`; -1 if none.
double max_value_with_prefix(const util::Json& metrics, const std::string& prefix) {
  double best = -1.0;
  for (const auto& [key, value] : metrics.as_object()) {
    if (key.rfind(prefix, 0) == 0) best = std::max(best, value.at("value").as_number());
  }
  return best;
}

TEST(ArtifactIntegration, ClosedLoopRunProducesParsableArtifacts) {
  const std::string dir =
      std::string(::testing::TempDir()) + "anor_artifact_test/closed_loop";
  fs::remove_all(dir);

  // The global registry is shared with every other test in this binary:
  // start from zeroed values so the assertions see this run only.
  telemetry::MetricsRegistry::global().reset_values();
  telemetry::TraceRecorder::global().clear();

  const auto result = run_scenario(small_spec(dir), small_base());
  ASSERT_EQ(result.completed.size(), 2u);

  // --- metrics.json: final registry snapshot with the run's vitals ---
  const util::Json metrics = util::Json::parse(slurp(dir + "/metrics.json"));
  EXPECT_GT(metric_value(metrics, "node.rapl.limit_writes"), 0.0);
  EXPECT_GT(metric_value(metrics, "cluster.power_w"), 0.0);
  EXPECT_GT(metric_value(metrics, "cluster.transport.inproc.sent"), 0.0);
  EXPECT_GT(metric_value(metrics, "cluster.transport.inproc.received"), 0.0);
  EXPECT_GT(metric_value(metrics, "cluster.manager.budget_msgs_sent"), 0.0);
  EXPECT_GT(metric_value(metrics, "cluster.budget.distributions"), 0.0);
  EXPECT_GT(max_value_with_prefix(metrics, "job.epoch_count{"), 0.0);
  EXPECT_GT(max_value_with_prefix(metrics, "cluster.manager.job_cap_w{"), 0.0);

  // --- metrics.csv: long-format time series sampled on the log cadence ---
  std::istringstream csv(slurp(dir + "/metrics.csv"));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "t_s,metric,type,value");
  std::set<std::string> sample_times;
  bool power_series = false;
  bool limit_write_series = false;
  while (std::getline(csv, line)) {
    const std::size_t comma = line.find(',');
    ASSERT_NE(comma, std::string::npos) << line;
    sample_times.insert(line.substr(0, comma));
    if (line.find(",cluster.power_w,gauge,") != std::string::npos) power_series = true;
    if (line.find(",node.rapl.limit_writes,counter,") != std::string::npos) {
      limit_write_series = true;
    }
  }
  EXPECT_GE(sample_times.size(), 2u) << "expected multiple sampling ticks";
  EXPECT_TRUE(power_series);
  EXPECT_TRUE(limit_write_series);

  // --- trace.json: loadable Chrome trace with job spans and series ---
  const util::Json trace = util::Json::parse(slurp(dir + "/trace.json"));
  const auto& events = trace.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool job_span = false;
  bool power_counter = false;
  bool cap_change = false;
  for (const auto& event : events) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "X" && event.at("cat").as_string() == "job") job_span = true;
    if (ph == "C" && event.at("name").as_string() == "cluster.power_w") power_counter = true;
    if (ph == "i" && event.at("name").as_string().rfind("cap_change", 0) == 0) cap_change = true;
  }
  EXPECT_TRUE(job_span) << "no completed job span in trace";
  EXPECT_TRUE(power_counter) << "no cluster.power_w counter series in trace";
  EXPECT_TRUE(cap_change) << "no cap_change instants in trace";

  // --- manifest ties it together ---
  const util::Json manifest = util::Json::parse(slurp(dir + "/manifest.json"));
  EXPECT_EQ(manifest.at("run").as_string(), "experiment");
  EXPECT_GT(manifest.at("trace_events").as_number(), 0.0);
}

}  // namespace
}  // namespace anor::engine
