// Facility-level power coordination (paper Sec. 8 future work): two
// clusters — an established production cluster and a next-generation
// cluster being brought up — share one facility power envelope that
// cannot feed both at peak simultaneously.  The coordinator re-splits the
// facility target as load shifts between them.
//
//   $ ./facility_coordination
#include <iostream>

#include "cluster/emulation.hpp"
#include "cluster/facility.hpp"
#include "util/table.hpp"

namespace {

using namespace anor;

cluster::EmulationConfig cluster_config(int nodes) {
  cluster::EmulationConfig config;
  config.node_count = nodes;
  config.step_s = 0.25;
  config.manager.control_period_s = 0.5;
  config.endpoint.period_s = 0.5;
  config.scheduler.power_aware_admission = false;
  return config;
}

workload::Schedule schedule_for(std::initializer_list<std::pair<const char*, double>> jobs) {
  workload::Schedule schedule;
  int id = 0;
  for (const auto& [type, submit] : jobs) {
    workload::JobRequest request;
    request.job_id = id++;
    request.type_name = type;
    request.submit_time_s = submit;
    request.nodes = workload::find_job_type(type).nodes;
    schedule.jobs.push_back(request);
  }
  return schedule;
}

}  // namespace

int main() {
  using namespace anor;
  std::cout <<
      "Facility: 8-node production cluster + 4-node bring-up cluster under a\n"
      "shared 2.6 kW envelope (not enough for both at peak).\n\n";

  // Production runs a steady mix; bring-up fires a burst of test jobs
  // mid-way through.
  cluster::EmulatedCluster production(
      cluster_config(8),
      schedule_for({{"bt.D.x", 0.0}, {"sp.D.x", 0.0}, {"lu.D.x", 5.0}, {"cg.D.x", 10.0}}));
  cluster::EmulatedCluster bringup(
      cluster_config(4), schedule_for({{"ft.D.x", 60.0}, {"mg.D.x", 70.0}}));

  cluster::FacilityCoordinator facility;
  facility.add_cluster(production);
  facility.add_cluster(bringup);

  const double facility_target_w = 2600.0;
  std::cout << "t_s   production_target  bringup_target  facility_measured\n";
  double next_print = 0.0;
  while (facility.step(facility_target_w, 0.5)) {
    if (facility.now_s() >= next_print) {
      next_print += 30.0;
      const auto p = production.manager().target_at(production.clock().now());
      const auto b = bringup.manager().target_at(bringup.clock().now());
      std::cout << util::TextTable::format_double(facility.now_s(), 0) << "     "
                << util::TextTable::format_double(p.value_or(0.0), 0) << "              "
                << util::TextTable::format_double(b.value_or(0.0), 0) << "            "
                << util::TextTable::format_double(facility.total_power_w(), 0) << "\n";
    }
    if (facility.now_s() > 1800.0) break;
  }

  std::cout << "\nWatch the bring-up cluster's share jump when its burst arrives at\n"
               "t=60-70 s, pulled from the production cluster's headroom — the\n"
               "paper's shared-infrastructure bring-up scenario.\n";
  return 0;
}
