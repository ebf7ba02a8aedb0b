// Misclassification and recovery, narrated: a power-sensitive BT job is
// submitted with the wrong job type (IS).  Watch what each policy does to
// it under a shared budget, and how the online feedback loop detects the
// lie and recovers the lost performance.
//
//   $ ./misclassification_recovery
#include <iostream>

#include "engine/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace anor;

double run(engine::PolicyRef policy, bool lie) {
  engine::ScenarioSpec spec;
  spec.node_count = 4;
  spec.policy = policy;
  spec.schedule.jobs = {
      {0, "bt.D.x", 0.0, 2, lie ? "is.D.x" : ""},
      {1, "sp.D.x", 0.0, 2, ""},
  };
  spec.schedule.duration_s = 1.0;
  spec.static_budget_w = 4 * 0.75 * workload::kNodeTdpW;
  const auto result = engine::run_scenario(spec);
  for (const auto& job : result.completed) {
    if (job.request.type_name == "bt.D.x") return job.slowdown();
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace anor;
  std::cout <<
      "Scenario: BT (high power sensitivity) and SP (low) share a 4-node\n"
      "cluster capped at 75% of TDP.  The batch system believes BT is an IS\n"
      "job -- a type whose performance barely reacts to power.\n\n";

  const double honest = run(engine::PolicyRef("characterized"), false);
  std::cout << "1. correctly classified, performance-aware budgeter:\n"
            << "   BT slowdown " << util::TextTable::format_percent(honest) << "\n\n";

  const double lied = run(engine::PolicyRef("misclassified"), true);
  std::cout << "2. misclassified as IS, no feedback:\n"
            << "   the budgeter starves BT of power (IS 'wouldn't care')\n"
            << "   BT slowdown " << util::TextTable::format_percent(lied) << "\n\n";

  const double recovered = run(engine::PolicyRef("adjusted"), true);
  std::cout << "3. misclassified as IS, with the ANOR feedback loop:\n"
            << "   the job-tier modeler sees epochs arriving ~5x slower than the\n"
            << "   IS curve predicts, reclassifies against the precharacterized\n"
            << "   curves, and publishes the corrected model to the cluster tier\n"
            << "   BT slowdown " << util::TextTable::format_percent(recovered) << "\n\n";

  const double lost = lied - honest;
  const double regained = lied - recovered;
  std::cout << "misclassification cost " << util::TextTable::format_percent(lost)
            << " of runtime; feedback recovered "
            << util::TextTable::format_percent(lost > 0 ? regained / lost : 0.0)
            << " of that loss.\n";
  return 0;
}
