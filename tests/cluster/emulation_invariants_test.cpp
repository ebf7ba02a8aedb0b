// Whole-system invariants of the emulated cluster, checked while the full
// two-tier stack runs: energy accounting closes, caps stay inside the
// hardware range, reports are self-consistent, and node bookkeeping never
// leaks.
#include <gtest/gtest.h>

#include "cluster/emulation.hpp"
#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"

namespace anor::cluster {
namespace {

EmulationConfig invariant_config() {
  EmulationConfig config;
  config.node_count = 6;
  config.node.package.response_tau_s = 0.2;
  config.step_s = 0.25;
  config.manager.control_period_s = 0.5;
  config.endpoint.period_s = 0.5;
  config.scheduler.power_aware_admission = true;
  return config;
}

workload::Schedule busy_schedule() {
  workload::Schedule schedule;
  int id = 0;
  for (double t : {0.0, 0.0, 10.0, 40.0, 80.0}) {
    for (const char* type : {"cg.D.x", "mg.D.x"}) {
      workload::JobRequest request;
      request.job_id = id++;
      request.type_name = type;
      request.submit_time_s = t;
      request.nodes = 1;
      schedule.jobs.push_back(request);
    }
  }
  schedule.duration_s = 100.0;
  return schedule;
}

TEST(EmulationInvariants, CapsAlwaysWithinHardwareRange) {
  EmulatedCluster emu(invariant_config(), busy_schedule());
  util::TimeSeries targets;
  targets.add(0.0, 6 * 180.0);
  emu.set_power_targets(std::move(targets));
  int checks = 0;
  while (emu.step()) {
    for (int n = 0; n < emu.hardware().node_count(); ++n) {
      const double cap = emu.hardware().node(n).effective_cap_w();
      ASSERT_GE(cap, 140.0 - 1e-9);
      ASSERT_LE(cap, 280.0 + 1e-9);
      ++checks;
    }
    ASSERT_LT(emu.clock().now(), 3600.0) << "schedule failed to drain";
  }
  EXPECT_GT(checks, 1000);
}

TEST(EmulationInvariants, JobEnergySumsWithinClusterEnergy) {
  EmulatedCluster emu(invariant_config(), busy_schedule());
  const auto result = emu.run();
  ASSERT_EQ(result.completed.size(), busy_schedule().jobs.size());
  double job_energy = 0.0;
  for (const auto& job : result.completed) {
    EXPECT_GT(job.report.package_energy_j, 0.0);
    job_energy += job.report.package_energy_j;
  }
  // Cluster energy = jobs + idle-node draw; jobs can never exceed it.
  const double cluster_energy = emu.hardware().total_energy_j();
  EXPECT_LE(job_energy, cluster_energy + 1.0);
  EXPECT_GT(job_energy, 0.5 * cluster_energy);  // the cluster was mostly busy
}

TEST(EmulationInvariants, ReportsSelfConsistent) {
  EmulatedCluster emu(invariant_config(), busy_schedule());
  const auto result = emu.run();
  for (const auto& job : result.completed) {
    EXPECT_NEAR(job.report.runtime_s, job.end_s - job.start_s, 1e-6);
    EXPECT_LE(job.report.compute_runtime_s, job.report.runtime_s + 1e-6);
    EXPECT_GT(job.report.epoch_count, 0);
    EXPECT_NEAR(job.report.average_power_w,
                job.report.package_energy_j / job.report.runtime_s, 1e-6);
    EXPECT_GE(job.report.average_cap_w, 140.0 - 1e-6);
    EXPECT_LE(job.report.average_cap_w, 280.0 + 1e-6);
    EXPECT_GE(job.start_s, job.submit_s - 1e-9);
    EXPECT_GT(job.end_s, job.start_s);
  }
}

TEST(EmulationInvariants, NodesNeverLeak) {
  EmulatedCluster emu(invariant_config(), busy_schedule());
  while (emu.step()) {
    int busy = 0;
    for (int n = 0; n < emu.hardware().node_count(); ++n) {
      if (emu.hardware().node(n).busy()) ++busy;
    }
    // Busy hardware nodes match the node demand of running jobs.
    int expected = 0;
    expected = static_cast<int>(emu.running_jobs());  // 1 node per job here
    ASSERT_EQ(busy, expected) << "t=" << emu.clock().now();
  }
  // Everything released at the end.
  for (int n = 0; n < emu.hardware().node_count(); ++n) {
    EXPECT_FALSE(emu.hardware().node(n).busy());
  }
}

TEST(EmulationInvariants, PowerSeriesMatchesHardwareScale) {
  EmulatedCluster emu(invariant_config(), busy_schedule());
  const auto result = emu.run();
  for (double v : result.power_w.values()) {
    EXPECT_GE(v, 6 * 2 * 10.0);          // above deep-idle floor
    EXPECT_LE(v, 6 * 280.0 + 1.0);       // below all-nodes-at-TDP
  }
}

TEST(EmulationInvariants, PoliciesAllDrainTheSameSchedule) {
  for (const engine::PolicyRef policy :
       {engine::PolicyRef("uniform"), engine::PolicyRef("characterized"),
        engine::PolicyRef("misclassified"), engine::PolicyRef("adjusted")}) {
    engine::ScenarioSpec spec;
    spec.node_count = 6;
    spec.policy = policy;
    spec.schedule = busy_schedule();
    if (engine::expects_misclassification(policy)) {
      workload::misclassify(spec.schedule, "cg.D.x", "is.D.x");
    }
    spec.static_budget_w = 6 * 190.0;
    const auto result = engine::run_scenario(spec, invariant_config());
    EXPECT_EQ(result.completed.size(), busy_schedule().jobs.size())
        << engine::to_string(policy);
  }
}

}  // namespace
}  // namespace anor::cluster
