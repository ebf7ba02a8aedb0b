// Carbon- and tariff-aware operation — the paper's other two motivating
// grid scenarios (Sec. 3): the cluster follows power targets derived from
// grid carbon intensity (run hard when clean, throttle when dirty) or a
// time-of-use tariff, and we compare emissions/cost against running flat.
//
//   $ ./carbon_aware
#include <iostream>

#include "engine/runner.hpp"
#include "util/table.hpp"
#include "workload/grid_signals.hpp"

namespace {

using namespace anor;

engine::RunResult run_with_targets(const util::TimeSeries& targets,
                                   const workload::Schedule& schedule) {
  cluster::EmulationConfig base;
  base.scheduler.power_aware_admission = true;
  base.manager.control_period_s = 0.5;
  base.endpoint.period_s = 0.5;
  engine::ScenarioSpec spec;
  spec.node_count = 8;
  spec.policy = "characterized";
  spec.schedule = schedule;
  spec.targets = targets;
  return engine::run_scenario(spec, base);
}

}  // namespace

int main() {
  using namespace anor;
  constexpr double kHorizon = 4.0 * 3600.0;  // a 4-hour afternoon window

  // A steady stream of work for 8 nodes.
  workload::PoissonScheduleConfig schedule_config;
  schedule_config.duration_s = kHorizon;
  schedule_config.utilization = 0.7;
  schedule_config.cluster_nodes = 8;
  const workload::Schedule schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), schedule_config, util::Rng(11).child("schedule"));

  const double p_low = 8 * 170.0;
  const double p_high = 8 * 250.0;

  // --- carbon-aware run ---
  const workload::CarbonIntensityProfile carbon(util::Rng(11).child("carbon"),
                                                kHorizon + 60.0);
  const auto carbon_targets =
      workload::targets_from_carbon(carbon, p_low, p_high, kHorizon, 60.0);
  const auto carbon_run = run_with_targets(carbon_targets, schedule);

  // --- flat baseline at the same mean power budget ---
  util::TimeSeries flat_targets;
  flat_targets.add(0.0, carbon_targets.mean());
  const auto flat_run = run_with_targets(flat_targets, schedule);

  const double carbon_aware_g = workload::carbon_emitted_g(carbon_run.power_w, carbon);
  const double carbon_flat_g = workload::carbon_emitted_g(flat_run.power_w, carbon);
  std::cout << "carbon-aware targets:  " << carbon_aware_g / 1000.0 << " kgCO2, "
            << carbon_run.completed.size() << " jobs finished\n"
            << "flat targets:          " << carbon_flat_g / 1000.0 << " kgCO2, "
            << flat_run.completed.size() << " jobs finished\n"
            << "emission change:       "
            << util::TextTable::format_percent(carbon_aware_g / carbon_flat_g - 1.0)
            << " at the same mean power budget\n\n";

  // --- tariff-aware run over the same window ---
  const workload::TouTariff tariff = workload::TouTariff::standard();
  // Shift the window onto the evening peak (15:00-19:00).
  const double window_start = 15.0 * 3600.0;
  util::TimeSeries tariff_targets;
  for (double t = 0.0; t <= kHorizon + 1e-9; t += 60.0) {
    const double price = tariff.price_at(window_start + t);
    const double frac = (price - 0.08) / (0.24 - 0.08);
    tariff_targets.add(t, p_high - frac * (p_high - p_low));
  }
  const auto tariff_run = run_with_targets(tariff_targets, schedule);

  const auto shifted = [&](const util::TimeSeries& series) {
    util::TimeSeries out;
    for (std::size_t i = 0; i < series.size(); ++i) {
      out.add(window_start + series.times()[i], series.values()[i]);
    }
    return out;
  };
  const double tariff_cost = tariff.cost_of(shifted(tariff_run.power_w));
  const double flat_cost = tariff.cost_of(shifted(flat_run.power_w));
  std::cout << "tariff-aware targets:  $" << util::TextTable::format_double(tariff_cost, 2)
            << " for the window (" << tariff_run.completed.size() << " jobs)\n"
            << "flat targets:          $" << util::TextTable::format_double(flat_cost, 2)
            << "\ncost change:           "
            << util::TextTable::format_percent(tariff_cost / flat_cost - 1.0) << "\n";
  return 0;
}
