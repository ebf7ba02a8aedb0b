#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "budget/one_cap_short_budgeter.hpp"
#include "util/error.hpp"

namespace anor::sim {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.node_count = 40;
  config.duration_s = 1200.0;
  config.job_types = standard_sim_types(/*long_types_only=*/true, /*node_scale=*/1);
  return config;
}

workload::Schedule one_job_schedule(const char* type, double submit = 0.0) {
  workload::Schedule schedule;
  schedule.duration_s = 100.0;
  workload::JobRequest request;
  request.job_id = 0;
  request.type_name = type;
  request.submit_time_s = submit;
  schedule.jobs.push_back(request);
  return schedule;
}

TEST(SimJobType, FromJobTypePreservesEndpoints) {
  const auto& bt = workload::find_job_type("bt.D.x");
  const SimJobType sim_type = SimJobType::from_job_type(bt);
  EXPECT_EQ(sim_type.nodes, bt.nodes);
  EXPECT_DOUBLE_EQ(sim_type.time_at_pmax_s, bt.min_exec_time_s());
  EXPECT_NEAR(sim_type.time_at_pmin_s / sim_type.time_at_pmax_s, 1.70, 0.01);
}

TEST(SimJobType, ProgressRateLinearBetweenEndpoints) {
  const SimJobType t = SimJobType::from_job_type(workload::find_job_type("lu.D.x"));
  const double rate_min = t.progress_rate(t.p_min_w);
  const double rate_max = t.progress_rate(t.p_max_w);
  const double rate_mid = t.progress_rate(0.5 * (t.p_min_w + t.p_max_w));
  EXPECT_NEAR(rate_mid, 0.5 * (rate_min + rate_max), 1e-12);
  // Clamping outside the range.
  EXPECT_DOUBLE_EQ(t.progress_rate(10.0), rate_min);
  EXPECT_DOUBLE_EQ(t.progress_rate(1000.0), rate_max);
}

TEST(SimJobType, BudgetModelApproximatesInverseRate) {
  const SimJobType t = SimJobType::from_job_type(workload::find_job_type("ft.D.x"));
  const auto model = t.budget_model();
  for (double cap = t.p_min_w; cap <= t.p_max_w; cap += 15.0) {
    EXPECT_NEAR(model.time_at(cap), 1.0 / t.progress_rate(cap),
                0.02 / t.progress_rate(cap));
  }
}

TEST(StandardSimTypes, ScaleMultipliesNodes) {
  const auto scaled = standard_sim_types(true, 25);
  const auto base = standard_sim_types(true, 1);
  ASSERT_EQ(scaled.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(scaled[i].nodes, base[i].nodes * 25);
  }
}

TEST(TabularSimulator, RejectsEmptyTypesAndUnknownNames) {
  SimConfig config = small_config();
  config.job_types.clear();
  EXPECT_THROW(TabularSimulator(config, {}, util::Rng(1)), util::ConfigError);

  TabularSimulator sim(small_config(), one_job_schedule("bt.D.x"), util::Rng(1));
  EXPECT_NO_THROW(sim.step());
  TabularSimulator bad(small_config(), one_job_schedule("nope"), util::Rng(1));
  EXPECT_THROW(bad.run(), util::ConfigError);
}

TEST(TabularSimulator, SingleJobRunsToCompletionUncapped) {
  const SimConfig config = small_config();  // no targets -> no capping
  TabularSimulator sim(config, one_job_schedule("bt.D.x"), util::Rng(1));
  const SimResult result = sim.run();
  EXPECT_EQ(result.jobs_completed, 1);
  ASSERT_EQ(result.qos.records().size(), 1u);
  const auto& record = result.qos.records()[0];
  // Uncapped: completes in ~T_min (+ at most a couple of control periods).
  EXPECT_NEAR(record.end_s - record.start_s,
              workload::find_job_type("bt.D.x").min_exec_time_s(), 10.0);
  EXPECT_LT(record.qos_degradation(), 0.1);
}

TEST(TabularSimulator, PowerSeriesCoversIdleAndBusy) {
  const SimConfig config = small_config();
  TabularSimulator sim(config, one_job_schedule("cg.D.x", 10.0), util::Rng(1));
  const SimResult result = sim.run();
  ASSERT_FALSE(result.power_w.empty());
  // At t=0 everything idles.
  EXPECT_NEAR(result.power_w.values().front(), config.node_count * config.idle_power_w,
              1.0);
  // While the job runs, power is higher.
  double max_power = 0.0;
  for (double v : result.power_w.values()) max_power = std::max(max_power, v);
  EXPECT_GT(max_power, config.node_count * config.idle_power_w + 50.0);
}

TEST(TabularSimulator, TrackingFollowsTarget) {
  SimConfig config = small_config();
  config.node_count = 100;
  config.duration_s = 1500.0;
  // All 6 types at 75 % utilization.  The bid must keep the whole target
  // band inside the cluster's feasible envelope: busy nodes can move in
  // [140, ~p_max], idle nodes are pinned at idle power, so mean ~172 W and
  // reserve ~20 W per node stay trackable.
  config.tracking_warmup_s = 300.0;
  const SimResult result = run_simulation(config, {100 * 150.0, 100 * 18.0}, 0.75, 42);
  ASSERT_GT(result.tracking.samples, 0u);
  // Paper constraint: error <= 30 % of reserve at least 90 % of the time.
  EXPECT_GE(result.tracking.fraction_within_30, 0.90)
      << "p90 error: " << result.tracking.p90_error;
}

TEST(TabularSimulator, PerfVariationSlowsSomeJobs) {
  SimConfig config = small_config();
  config.duration_s = 800.0;
  config.perf_variation_sigma = 0.3;
  TabularSimulator slow_sim(config, one_job_schedule("mg.D.x"), util::Rng(77));
  const SimResult varied = slow_sim.run();
  ASSERT_EQ(varied.jobs_completed, 1);
  // With sigma=0.3 the drawn multiplier is almost surely != 1; runtime
  // differs from nominal.
  const double runtime =
      varied.qos.records()[0].end_s - varied.qos.records()[0].start_s;
  const double nominal = workload::find_job_type("mg.D.x").min_exec_time_s();
  EXPECT_GT(std::abs(runtime - nominal), 1.0);
}

TEST(TabularSimulator, DeterministicPerSeed) {
  SimConfig config = small_config();
  config.duration_s = 600.0;
  const SimResult a = run_simulation(config, {}, 0.5, 9);
  const SimResult b = run_simulation(config, {}, 0.5, 9);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  ASSERT_EQ(a.power_w.size(), b.power_w.size());
  for (std::size_t i = 0; i < a.power_w.size(); i += 37) {
    EXPECT_DOUBLE_EQ(a.power_w.values()[i], b.power_w.values()[i]);
  }
}

TEST(TabularSimulator, MultiNodeJobNeedsAllNodesDone) {
  SimConfig config = small_config();
  config.perf_variation_sigma = 0.4;  // nodes progress at different rates
  TabularSimulator sim(config, one_job_schedule("bt.D.x"), util::Rng(3));
  // Step until the job starts.
  while (sim.job_table().size() == 0 || !sim.job_table().row(0).started()) {
    ASSERT_TRUE(sim.step());
  }
  const auto& row = sim.job_table().row(0);
  ASSERT_EQ(row.nodes.size(), 2u);
  // Run until one node reaches 100 %: the job must not be finished if the
  // other lags.
  bool saw_partial = false;
  while (!sim.job_table().row(0).finished()) {
    ASSERT_TRUE(sim.step());
    const auto& r = sim.job_table().row(0);
    if (r.finished()) break;
    int done_nodes = 0;
    for (int n : r.nodes) {
      if (sim.node_table().progress(n) >= 1.0) ++done_nodes;
    }
    if (done_nodes == 1) saw_partial = true;
  }
  EXPECT_TRUE(saw_partial);
}

TEST(TabularSimulator, TableLogAppendsPerStep) {
  SimConfig config = small_config();
  config.duration_s = 60.0;
  std::ostringstream log;
  TabularSimulator sim(config, one_job_schedule("cg.D.x"), util::Rng(1));
  sim.set_table_log(&log, /*every_n_steps=*/10);
  for (int i = 0; i < 30; ++i) sim.step();
  const std::string text = log.str();
  // 3 logged steps x 40 node rows, plus job rows once the job exists.
  int node_rows = 0;
  int job_rows = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("N,", 0) == 0) ++node_rows;
    if (line.rfind("J,", 0) == 0) ++job_rows;
  }
  EXPECT_EQ(node_rows, 3 * config.node_count);
  EXPECT_GE(job_rows, 1);
  // Node rows carry the schema fields.
  EXPECT_NE(text.find("N,0,0,"), std::string::npos);
  // Logging can be detached safely.
  sim.set_table_log(nullptr);
  EXPECT_TRUE(sim.step());
}

TEST(TabularSimulator, ProtectAtRiskJobsLiftsTheirCaps) {
  // One job submitted long ago (deep queue delay already accrued): its
  // projected QoS breaches the limit, so with protection enabled the
  // policy must exempt it from capping even under a tight target.
  SimConfig config = small_config();
  config.node_count = 10;
  config.duration_s = 1500.0;
  config.protect_at_risk_jobs = true;
  config.at_risk_fraction = 0.0;  // protect anything at risk at all
  // Tight target: after the 9 idle nodes' 90 W each, the running job's
  // budget pins at the floor cap unless it is protected.
  set_bid_targets(config, {9 * 90.0 + 145.0, 10 * 2.0}, util::Rng(3));

  // Give the job an artificial 20-minute-old submission: T_min ~ 120 s,
  // so projected Q is already far beyond any threshold at start.
  workload::Schedule schedule;
  workload::JobRequest request;
  request.job_id = 0;
  request.type_name = "cg.D.x";
  request.submit_time_s = 0.0;
  schedule.jobs.push_back(request);
  schedule.duration_s = 10.0;

  // Sample the job's cap mid-execution (it is released on completion).
  const auto mid_run_cap = [&schedule](SimConfig cfg) {
    TabularSimulator sim(cfg, schedule, util::Rng(3));
    for (int i = 0; i < 2000; ++i) {
      sim.step();
      if (sim.job_table().size() == 0) continue;
      const auto& row = sim.job_table().by_job_id(0);
      if (row.started() && !row.finished() &&
          sim.node_table().progress(row.nodes[0]) > 0.2) {
        return sim.node_table().cap_w(row.nodes[0]);
      }
    }
    ADD_FAILURE() << "job never reached mid-execution";
    return 0.0;
  };

  const double protected_cap = mid_run_cap(config);
  config.protect_at_risk_jobs = false;
  const double capped_cap = mid_run_cap(config);

  EXPECT_GT(protected_cap, capped_cap + 30.0);
  // Protected job sits at its type's max power.
  EXPECT_NEAR(protected_cap, config.job_types[1].p_max_w, 30.0);
}

TEST(TabularSimulator, BackfillShortensQueueDelayBehindBigJob) {
  // 6 nodes.  A long 4-node SP job runs; the cg queue holds a 4-node
  // instance (blocked: only 2 nodes free) and a 1-node quickie behind it
  // with a tight walltime hint.  With EASY backfill the quickie uses the
  // idle nodes during the blockage; without, it waits for the head.
  SimConfig config = small_config();
  config.node_count = 6;
  config.duration_s = 3000.0;
  config.power_aware_admission = false;

  workload::Schedule schedule;
  workload::JobRequest filler{0, "sp.D.x", 0.0, 4, ""};  // 200 s on 4 nodes
  workload::JobRequest head{1, "cg.D.x", 5.0, 4, ""};    // blocked behind it
  workload::JobRequest quickie{2, "cg.D.x", 10.0, 1, ""};
  quickie.walltime_hint_s = 130.0;  // fits the ~190 s gap
  schedule.jobs = {filler, head, quickie};

  const auto wait_of = [&](bool backfill) {
    SimConfig c = config;
    c.backfill = backfill;
    TabularSimulator sim(c, schedule, util::Rng(5));
    const SimResult result = sim.run();
    for (const auto& record : result.qos.records()) {
      if (record.job_id == 2) return record.start_s - record.submit_s;
    }
    return -1.0;
  };
  const double wait_backfill = wait_of(true);
  const double wait_fifo = wait_of(false);
  ASSERT_GE(wait_backfill, 0.0);
  ASSERT_GE(wait_fifo, 0.0);
  // FIFO: the quickie waits for the filler to release nodes (~190 s).
  // Backfill: it starts nearly immediately.
  EXPECT_LT(wait_backfill, 30.0) << "fifo wait was " << wait_fifo;
  EXPECT_GT(wait_fifo, 100.0);
}

TEST(TabularSimulator, ShortCapVectorFailsLoudlyNamingTheBudgeter) {
  SimConfig config = small_config();
  config.duration_s = 300.0;
  config.power_targets.add(0.0, config.node_count * 150.0);
  config.budgeter_factory = [] { return std::make_unique<budget::OneCapShortBudgeter>(); };
  TabularSimulator sim(config, one_job_schedule("bt.D.x"), util::Rng(5));
  try {
    sim.run();
    FAIL() << "a short cap vector must not be indexed";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'one-cap-short' returned 0 caps for 1 jobs"),
              std::string::npos)
        << e.what();
  }
}

TEST(TabularSimulator, RunHandsItsResultOverOnce) {
  SimConfig config = small_config();
  config.duration_s = 300.0;
  TabularSimulator sim(config, one_job_schedule("cg.D.x"), util::Rng(2));
  const SimResult result = sim.run();
  EXPECT_EQ(result.jobs_completed, 1);
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_FALSE(sim.step());
}

TEST(TabularSimulator, UtilizationReported) {
  SimConfig config = small_config();
  config.duration_s = 2000.0;
  const SimResult result = run_simulation(config, {}, 0.5, 21);
  EXPECT_GT(result.mean_utilization, 0.2);
  EXPECT_LT(result.mean_utilization, 0.9);
}

}  // namespace
}  // namespace anor::sim
