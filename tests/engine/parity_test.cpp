// Cross-backend parity: the same ScenarioSpec run through the emulated
// cluster and the tabular simulator must agree on what matters — tracking
// error within tolerance, the paper's per-policy slowdown ordering, and
// the QoS verdict — for all four policies.  This is the contract that
// makes a scenario validated at simulator scale meaningful for the
// emulated (and, in the paper, the real) cluster.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include <string>

#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"
#include "util/stats.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {
namespace {

constexpr int kNodes = 8;
constexpr double kBudgetW = 165.0 * kNodes;
constexpr double kTrackingTol = 0.25;  // of the budget-normalized error
constexpr double kSlowdownTol = 0.25;

struct Outcome {
  double mean_slowdown = 0.0;
  double p90_tracking = 0.0;
  bool qos_ok = false;
  int completed = 0;
};

workload::Schedule parity_schedule() {
  workload::PoissonScheduleConfig config;
  config.duration_s = 600.0;
  config.utilization = 0.8;
  config.cluster_nodes = kNodes;
  return workload::generate_poisson_schedule(workload::nas_long_job_types(), config,
                                             util::Rng(7));
}

Outcome run_one(const PolicyRef& policy, Backend backend) {
  workload::Schedule schedule = parity_schedule();
  if (expects_misclassification(policy)) {
    workload::misclassify(schedule, "bt.D.x", "is.D.x");
  }
  ScenarioSpec spec;
  spec.name = "parity";
  spec.backend = backend;
  spec.schedule = std::move(schedule);
  spec.policy = policy;
  spec.static_budget_w = kBudgetW;
  spec.tracking_reserve_w = kBudgetW;  // flat target: normalize by the budget
  spec.node_count = kNodes;
  spec.seed = 7;

  const RunResult result = run_scenario(spec);
  Outcome outcome;
  util::RunningStats slowdowns;
  for (const auto& job : result.completed) slowdowns.add(job.slowdown());
  outcome.mean_slowdown = slowdowns.mean();
  outcome.p90_tracking = result.tracking.p90_error;
  outcome.qos_ok = result.qos.satisfied();
  outcome.completed = result.jobs_completed;
  return outcome;
}

class ParityTest : public ::testing::Test {
 protected:
  static const std::map<std::string, std::map<Backend, Outcome>>& grid() {
    static const auto* grid = [] {
      auto* g = new std::map<std::string, std::map<Backend, Outcome>>();
      for (const std::string& policy : PolicyRegistry::builtin_names()) {
        for (Backend backend : {Backend::kEmulated, Backend::kTabular}) {
          (*g)[policy][backend] = run_one(PolicyRef(policy), backend);
        }
      }
      return g;
    }();
    return *grid;
  }
};

TEST_F(ParityTest, BothBackendsCompleteEveryJob) {
  const int submitted = static_cast<int>(parity_schedule().jobs.size());
  ASSERT_GT(submitted, 0);
  for (const auto& [policy, backends] : grid()) {
    for (const auto& [backend, outcome] : backends) {
      EXPECT_EQ(outcome.completed, submitted)
          << policy << " on " << to_string(backend);
    }
  }
}

TEST_F(ParityTest, TrackingErrorAgreesWithinTolerance) {
  for (const auto& [policy, backends] : grid()) {
    const Outcome& emu = backends.at(Backend::kEmulated);
    const Outcome& tab = backends.at(Backend::kTabular);
    EXPECT_GT(emu.p90_tracking, 0.0) << policy;
    EXPECT_GT(tab.p90_tracking, 0.0) << policy;
    EXPECT_LT(std::abs(emu.p90_tracking - tab.p90_tracking), kTrackingTol)
        << policy << ": " << emu.p90_tracking << " vs " << tab.p90_tracking;
  }
}

TEST_F(ParityTest, MeanSlowdownAgreesWithinTolerance) {
  for (const auto& [policy, backends] : grid()) {
    const Outcome& emu = backends.at(Backend::kEmulated);
    const Outcome& tab = backends.at(Backend::kTabular);
    EXPECT_LT(std::abs(emu.mean_slowdown - tab.mean_slowdown), kSlowdownTol)
        << policy << ": " << emu.mean_slowdown << " vs " << tab.mean_slowdown;
  }
}

TEST_F(ParityTest, QosVerdictsAgree) {
  for (const auto& [policy, backends] : grid()) {
    EXPECT_EQ(backends.at(Backend::kEmulated).qos_ok,
              backends.at(Backend::kTabular).qos_ok)
        << policy;
  }
}

TEST_F(ParityTest, PolicyOrderingConsistentAcrossBackends) {
  // The paper's qualitative result: the performance-aware even-slowdown
  // budgeter with correct models does no worse than the uniform one, on
  // either backend.
  for (Backend backend : {Backend::kEmulated, Backend::kTabular}) {
    const double characterized =
        grid().at("characterized").at(backend).mean_slowdown;
    const double uniform = grid().at("uniform").at(backend).mean_slowdown;
    EXPECT_LE(characterized, uniform + 1e-9) << to_string(backend);
  }
}

TEST_F(ParityTest, EmulatedScenarioMatchesLegacyExperimentPath) {
  // run_scenario is the only emulated entry point (the figure benches,
  // the examples and anorctl all go through it), so it must be
  // reproducible: same seed, same schedule, same policy => a bit-identical
  // power trace.  The test name predates the removal of the second entry
  // point it was first compared against.
  ScenarioSpec spec;
  spec.schedule = parity_schedule();
  spec.policy = PolicyRef("characterized");
  spec.static_budget_w = kBudgetW;
  spec.node_count = kNodes;
  spec.seed = 7;
  const RunResult once = run_scenario(spec);
  const RunResult twice = run_scenario(spec);
  ASSERT_EQ(once.power_w.size(), twice.power_w.size());
  for (std::size_t i = 0; i < once.power_w.size(); ++i) {
    ASSERT_EQ(once.power_w.values()[i], twice.power_w.values()[i]) << "sample " << i;
  }
  EXPECT_EQ(once.end_time_s, twice.end_time_s);
}

}  // namespace
}  // namespace anor::engine
