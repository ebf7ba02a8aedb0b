// Golden result hashes of the emulated tier.
//
// ExportGolden pins a 4-node `characterized` run; these two runs reach the
// rest of the job tier: the feedback path (online refits, the
// reclassifier, cap probing) on the Fig. 9 shape, and the power balancer's
// policy split on a three-level agent tree under node variation.  The
// hash is FNV-1a over the cache form of the run result, as perfbench's
// `result_hash` is, so any change to a cap, an epoch or a completion time
// moves it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/emulation.hpp"
#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/result_cache.hpp"
#include "telemetry/metrics.hpp"
#include "util/hash.hpp"
#include "workload/job_type.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {
namespace {

/// NAS-long arrivals at `utilization` with demand-response targets of
/// 150 W +- 18 W per node, as perfbench's grid cells generate them.
ScenarioSpec dr_spec(const std::string& name, const std::string& policy, int nodes,
                     double duration_s, double utilization, std::uint64_t seed,
                     const std::vector<workload::JobType>& types) {
  ScenarioSpec spec;
  spec.name = name;
  spec.backend = Backend::kEmulated;
  spec.policy = PolicyRef(policy);
  spec.node_count = nodes;
  spec.seed = seed;
  workload::PoissonScheduleConfig config;
  config.duration_s = duration_s;
  config.utilization = utilization;
  config.cluster_nodes = nodes;
  spec.schedule =
      workload::generate_poisson_schedule(types, config, util::Rng(seed).child("schedule"));
  workload::DemandResponseBid bid;
  bid.average_power_w = 150.0 * nodes;
  bid.reserve_w = 18.0 * nodes;
  const workload::RandomWalkRegulation regulation(util::Rng(seed).child("regulation"),
                                                  duration_s + 60.0, 4.0);
  spec.targets = workload::make_power_target_series(bid, regulation, duration_s, 4.0);
  spec.tracking_warmup_s = 120.0;
  spec.tracking_reserve_w = bid.reserve_w;
  return spec;
}

std::uint64_t counter(const char* name, const telemetry::MetricLabels& labels = {}) {
  return telemetry::MetricsRegistry::global().counter(name, labels).value();
}

TEST(EmulatedDeterminism, GoldenResultHashFeedback) {
  // Fig. 9: BT labelled IS under the feedback policy at 95 % load.
  ScenarioSpec spec = dr_spec("golden-feedback", "adjusted", 16, 900.0, 0.95, 24,
                              workload::nas_long_job_types());
  workload::misclassify(spec.schedule, "bt.D.x", "is.D.x");
  // The run's work, not only its result: a change to when the modeler
  // refits or the manager polls and rebudgets moves these counts.
  const telemetry::MetricLabels numerical{{"reason", "numerical"}};
  const std::uint64_t refits_before = counter("job.modeler.refit_attempts");
  const std::uint64_t numerical_before = counter("job.modeler.refit_rejected", numerical);
  const std::uint64_t sent_before = counter("cluster.transport.inproc.sent");
  const std::uint64_t rebudgets_before = counter("cluster.manager.rebudgets");
  const RunResult result = run_scenario(spec);
  ASSERT_GT(result.jobs_completed, 0);
  EXPECT_EQ(result.jobs_completed, result.jobs_submitted);
  EXPECT_EQ(util::hex16(sweep::result_hash(result)), "9469faabc9f14a36");
  EXPECT_EQ(counter("job.modeler.refit_attempts") - refits_before, 1866u);
  EXPECT_EQ(counter("job.modeler.refit_rejected", numerical) - numerical_before, 990u);
  EXPECT_EQ(counter("cluster.transport.inproc.sent") - sent_before, 15941u);
  EXPECT_EQ(counter("cluster.manager.rebudgets") - rebudgets_before, 751u);
}

TEST(EmulatedDeterminism, GoldenResultHashBalancerVariation) {
  // Every job on 8 nodes: the fanout-4 tree has three levels, so interior
  // agents split a policy they received from a parent.
  std::vector<workload::JobType> types;
  for (const workload::JobType& type : workload::nas_long_job_types()) {
    workload::JobType wide = type;
    wide.nodes = 8;
    types.push_back(wide);
  }
  ScenarioSpec spec = dr_spec("golden-balancer", "characterized", 32, 600.0, 0.9, 25, types);
  spec.perf_variation_sigma = 0.06;
  cluster::EmulationConfig base;
  base.controller.agent = geopm::AgentKind::kPowerBalancer;
  const std::uint64_t splits_before = counter("job.balancer.splits");
  const RunResult result = run_scenario(spec, base);
  ASSERT_GT(result.jobs_completed, 0);
  EXPECT_EQ(result.jobs_completed, result.jobs_submitted);
  EXPECT_GT(counter("job.balancer.splits"), splits_before);
  EXPECT_EQ(util::hex16(sweep::result_hash(result)), "33c2748c0818b998");
}

}  // namespace
}  // namespace anor::engine
