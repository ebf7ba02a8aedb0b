#include "budget/budgeter.hpp"

#include "budget/even_power.hpp"
#include "budget/even_slowdown.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace anor::budget {

namespace {

/// Decorator recording every distribute() call in the global telemetry
/// registry, so every consumer (cluster manager, simulator, benches) is
/// instrumented without knowing about telemetry.
class InstrumentedBudgeter final : public Budgeter {
 public:
  explicit InstrumentedBudgeter(std::unique_ptr<Budgeter> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  BudgetResult distribute(const std::vector<JobPowerProfile>& jobs,
                          double budget_w) const override {
    auto& registry = telemetry::MetricsRegistry::global();
    static auto& distributions = registry.counter("cluster.budget.distributions");
    static auto& allocated = registry.gauge("cluster.budget.allocated_w");
    static auto& balance = registry.gauge("cluster.budget.balance_point");
    static auto& job_count = registry.histogram(
        "cluster.budget.jobs_per_distribution", telemetry::linear_bounds(0.0, 4.0, 16));
    BudgetResult result = inner_->distribute(jobs, budget_w);
    distributions.inc();
    allocated.set(result.allocated_w);
    balance.set(result.balance_point);
    job_count.observe(static_cast<double>(jobs.size()));
    auto& tracer = telemetry::TraceRecorder::global();
    tracer.instant("budget.distribute", "cluster", tracer.clock_now(), result.allocated_w);
    return result;
  }

 private:
  std::unique_ptr<Budgeter> inner_;
};

}  // namespace

BudgeterFactory even_power_factory() {
  return [] { return std::unique_ptr<Budgeter>(std::make_unique<EvenPowerBudgeter>()); };
}

BudgeterFactory even_slowdown_factory() {
  return [] { return std::unique_ptr<Budgeter>(std::make_unique<EvenSlowdownBudgeter>()); };
}

std::unique_ptr<Budgeter> instrument_budgeter(std::unique_ptr<Budgeter> inner) {
  if (inner == nullptr) return nullptr;
  return std::make_unique<InstrumentedBudgeter>(std::move(inner));
}

void require_cap_per_job(const Budgeter& budgeter, const BudgetResult& result,
                         std::size_t job_count) {
  if (result.node_cap_w.size() == job_count) return;
  throw util::ConfigError("budgeter '" + budgeter.name() + "' returned " +
                          std::to_string(result.node_cap_w.size()) + " caps for " +
                          std::to_string(job_count) + " jobs");
}

double total_min_power_w(const std::vector<JobPowerProfile>& jobs) {
  double total = 0.0;
  for (const JobPowerProfile& j : jobs) total += j.nodes * j.model.p_min_w();
  return total;
}

double total_max_power_w(const std::vector<JobPowerProfile>& jobs) {
  double total = 0.0;
  for (const JobPowerProfile& j : jobs) total += j.nodes * j.model.p_max_w();
  return total;
}

}  // namespace anor::budget
