// Ablation: job phase changes across the management hierarchy (paper
// Sec. 8: "some jobs may consist of multiple power-sensitivity profiles
// through the job's lifecycle").
//
// A job runs IS-like for its first half and BT-like for its second, and
// the batch system classifies it as IS (true for phase one!).  Without
// feedback the cluster tier starves the BT phase; with feedback the
// job-tier modeler notices the divergence at the phase boundary and
// re-publishes, recovering phase-two performance.
#include <iostream>

#include "bench_common.hpp"
#include "emu_common.hpp"
#include "workload/phased_kernel.hpp"

namespace {

using namespace anor;

double run(engine::PolicyRef policy, std::uint64_t seed) {
  cluster::EmulationConfig base = bench::paper_emulation_base();
  base.scheduler.power_aware_admission = false;
  engine::ScenarioSpec spec;
  spec.node_count = 4;
  spec.policy = policy;
  spec.seed = seed;

  // The phased job: 100 IS-like epochs then 100 BT-like epochs, with the
  // BT phase's heavier per-epoch cost.
  workload::JobType is_half = workload::find_job_type("is.D.x");
  is_half.epochs = 100;
  is_half.base_epoch_s = 0.9;  // long enough that the phase matters
  workload::JobType bt_half = workload::find_job_type("bt.D.x");
  bt_half.epochs = 100;
  base.phase_overrides["is.D.x"] = {{is_half}, {bt_half}};

  workload::JobRequest phased{0, "is.D.x", 0.0, 2, ""};  // classified as IS
  workload::JobRequest co{1, "sp.D.x", 0.0, 2, ""};
  spec.schedule.jobs = {phased, co};
  spec.schedule.duration_s = 1.0;
  spec.static_budget_w = 4 * 0.75 * workload::kNodeTdpW;

  const auto result = engine::run_scenario(spec, base);
  for (const auto& job : result.completed) {
    if (job.request.job_id == 0) {
      // Reference runtime: both phases uncapped plus setup/teardown.
      const double uncapped = base.controller.kernel.setup_s +
                              base.controller.kernel.teardown_s +
                              is_half.min_exec_time_s() + bt_half.min_exec_time_s();
      return (job.end_s - job.start_s) / uncapped - 1.0;
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  anor::bench::ArtifactScope artifacts("abl_phased_jobs");
  bench::print_header("Ablation",
                      "phased job (IS-phase then BT-phase) classified as IS, "
                      "75%-of-TDP shared budget (3 trials)");

  struct Row {
    const char* label;
    engine::PolicyRef policy;
  };
  const Row rows[] = {
      {"Characterized (believes IS throughout)", engine::PolicyRef("characterized")},
      {"Adjusted (feedback re-detects at phase change)", engine::PolicyRef("adjusted")},
  };
  util::TextTable table({"policy", "phased_job_slowdown%", "sd"});
  std::vector<std::vector<double>> csv_rows;
  for (const Row& row : rows) {
    util::RunningStats stats;
    for (std::uint64_t seed = 100; seed < 103; ++seed) stats.add(run(row.policy, seed));
    table.add_row({row.label, util::TextTable::format_percent(stats.mean()),
                   util::TextTable::format_percent(stats.stddev())});
    csv_rows.push_back({stats.mean() * 100, stats.stddev() * 100});
  }
  bench::print_table(table);
  bench::print_csv({"slowdown%", "sd%"}, csv_rows);
  bench::print_note(
      "Expected: the static IS classification is right for phase one but starves\n"
      "phase two; the feedback loop re-publishes a BT-like model after the phase\n"
      "boundary and trims the phased job's total slowdown.");
  return 0;
}
