#include "engine/policy_admission.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "budget/budgeter.hpp"
#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"
#include "fault/chaos.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"
#include "workload/schedule.hpp"

namespace anor::engine {

namespace {

constexpr double kBudgetPerNodeW = 165.0;
constexpr char kChaosPlan[] = "drop10_crash1";

/// The harness itself runs scenarios with the candidate policy;
/// ensure_admitted must wave those through or admission would recurse.
thread_local bool admission_in_progress = false;

struct AdmissionScope {
  AdmissionScope() { admission_in_progress = true; }
  ~AdmissionScope() { admission_in_progress = false; }
};

std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

ScenarioSpec admission_spec(const PolicyRef& policy, const PolicyDescriptor& descriptor,
                            const AdmissionOptions& options, Backend backend) {
  workload::PoissonScheduleConfig config;
  config.duration_s = options.duration_s;
  config.utilization = options.utilization;
  config.cluster_nodes = options.node_count;
  workload::Schedule schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), config, util::Rng(options.seed));
  if (descriptor.expects_misclassification) {
    workload::misclassify(schedule, "bt.D.x", "is.D.x");
  }
  ScenarioSpec spec;
  spec.name = "admission/" + policy.name;
  spec.backend = backend;
  spec.schedule = std::move(schedule);
  spec.policy = policy;
  spec.static_budget_w = kBudgetPerNodeW * options.node_count;
  spec.tracking_reserve_w = *spec.static_budget_w;  // flat target: budget-normalized
  spec.node_count = options.node_count;
  spec.seed = options.seed;
  return spec;
}

/// 1. Budget-envelope sanity on the bare budgeter: caps inside each job's
/// [p_min, p_max], no over-commit above the feasible floor, and repeat
/// calls bit-identical (catches non-determinism — e.g. the DSL's noise()
/// hook — before any scenario is run).
AdmissionCheck check_envelope(const PolicyDescriptor& descriptor) {
  AdmissionCheck check;
  check.name = "budget-envelope";
  try {
    const std::unique_ptr<budget::Budgeter> budgeter = descriptor.budgeter_factory();

    std::vector<budget::JobPowerProfile> jobs;
    int id = 1;
    for (const workload::JobType& type : workload::nas_long_job_types()) {
      budget::JobPowerProfile profile;
      profile.job_id = id++;
      profile.nodes = type.nodes;
      profile.model = model::PowerPerfModel::from_job_type(type);
      jobs.push_back(std::move(profile));
    }
    const double lo = budget::total_min_power_w(jobs);
    const double hi = budget::total_max_power_w(jobs);

    for (const double f : {0.3, 0.6, 0.9, 1.2}) {
      const double budget_w = lo + f * (hi - lo);
      const budget::BudgetResult first = budgeter->distribute(jobs, budget_w);
      const budget::BudgetResult second = budgeter->distribute(jobs, budget_w);
      if (first.node_cap_w != second.node_cap_w ||
          first.allocated_w != second.allocated_w) {
        check.detail = "distribute() is not deterministic at budget " + fmt(budget_w) +
                       " W (repeat call returned different caps)";
        return check;
      }
      // A cap count that does not match throws; the catch below reports it.
      budget::require_cap_per_job(*budgeter, first, jobs.size());
      double total = 0.0;
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        const budget::JobPowerProfile& job = jobs[k];
        const double cap = first.node_cap_w[k];
        if (!std::isfinite(cap) || cap < job.model.p_min_w() - 1e-6 ||
            cap > job.model.p_max_w() + 1e-6) {
          check.detail = "cap " + fmt(cap) + " W for job " + std::to_string(job.job_id) +
                         " leaves the achievable envelope [" + fmt(job.model.p_min_w()) +
                         ", " + fmt(job.model.p_max_w()) + "]";
          return check;
        }
        total += job.nodes * cap;
      }
      if (budget_w >= lo && total > budget_w + 1e-6) {
        check.detail = "allocation " + fmt(total) + " W over-commits budget " +
                       fmt(budget_w) + " W";
        return check;
      }
    }
    check.passed = true;
    check.detail = "caps stay in envelope, never over-commit, repeat bit-identical";
  } catch (const std::exception& e) {
    check.detail = e.what();
  }
  return check;
}

/// 2. Tabular determinism: the full scenario run twice must serialize to
/// byte-identical artifacts.  The second run's result is handed back for
/// the parity check so admission costs one tabular run less.
AdmissionCheck check_tabular_determinism(const PolicyRef& policy,
                                         const PolicyDescriptor& descriptor,
                                         const AdmissionOptions& options,
                                         RunResult& tabular_out) {
  AdmissionCheck check;
  check.name = "tabular-determinism";
  try {
    const ScenarioSpec spec = admission_spec(policy, descriptor, options, Backend::kTabular);
    const RunResult first = run_scenario(spec);
    RunResult second = run_scenario(spec);
    const std::string a = run_result_json(first).dump();
    const std::string b = run_result_json(second).dump();
    if (a != b) {
      check.detail = "two identical runs produced different RunResult artifacts";
      return check;
    }
    tabular_out = std::move(second);
    check.passed = true;
    check.detail = "two runs byte-identical (" + std::to_string(first.jobs_completed) +
                   " jobs)";
  } catch (const std::exception& e) {
    check.detail = e.what();
  }
  return check;
}

/// 3. Cross-backend parity: the contract (parity_gaps) that
/// tests/engine/parity_test.cpp pins for built-ins, applied to the
/// candidate.
AdmissionCheck check_parity(const PolicyRef& policy, const PolicyDescriptor& descriptor,
                            const AdmissionOptions& options, const RunResult& tabular) {
  AdmissionCheck check;
  check.name = "cross-backend-parity";
  try {
    const ScenarioSpec spec = admission_spec(policy, descriptor, options, Backend::kEmulated);
    const ParitySummary emu = parity_summary(run_scenario(spec));
    const ParitySummary tab = parity_summary(tabular);
    const ParityGaps gaps = parity_gaps(emu, tab);
    if (!gaps.tracking_ok()) {
      check.detail = "tracking p90 disagrees across backends: emulated " +
                     fmt(emu.p90_tracking) + " vs tabular " + fmt(tab.p90_tracking);
      return check;
    }
    if (!gaps.slowdown_ok()) {
      check.detail = "mean slowdown disagrees across backends (gap " + fmt(gaps.slowdown) +
                     ")";
      return check;
    }
    if (!gaps.qos_agree) {
      check.detail = "QoS verdicts disagree across backends";
      return check;
    }
    check.passed = true;
    check.detail = "tracking gap " + fmt(gaps.tracking) + ", slowdown gap " +
                   fmt(gaps.slowdown) + ", QoS verdicts agree";
  } catch (const std::exception& e) {
    check.detail = e.what();
  }
  return check;
}

/// 4. Chaos determinism: the `anorctl chaos --verify-determinism` gate
/// with the candidate policy installed — two closed-loop fault-injection
/// runs must agree on the fault-event trace and the power series.
AdmissionCheck check_chaos(const PolicyRef& policy, const AdmissionOptions& options) {
  AdmissionCheck check;
  check.name = "chaos-determinism";
  try {
    fault::ChaosConfig config;
    config.plan = fault::FaultPlan::preset(kChaosPlan);
    config.duration_s = options.chaos_duration_s;
    config.node_count = options.chaos_node_count;
    apply_policy(config.base, policy);

    const fault::ChaosResult first = fault::run_chaos(config);
    const fault::ChaosResult second = fault::run_chaos(config);
    if (first.event_trace != second.event_trace) {
      check.detail = "fault-event traces differ between identical chaos runs";
      return check;
    }
    if (first.power_w.values() != second.power_w.values() ||
        first.power_w.times() != second.power_w.times()) {
      check.detail = "power series differ between identical chaos runs";
      return check;
    }
    check.passed = true;
    check.detail = std::string("plan '") + kChaosPlan +
                   "': traces and power series identical (" +
                   std::to_string(first.fault_events) + " fault events)";
  } catch (const std::exception& e) {
    check.detail = e.what();
  }
  return check;
}

}  // namespace

bool AdmissionReport::passed() const {
  if (checks.empty()) return false;
  for (const AdmissionCheck& check : checks) {
    if (!check.passed) return false;
  }
  return true;
}

std::string AdmissionReport::describe() const {
  std::string out;
  for (const AdmissionCheck& check : checks) {
    out += std::string("  [") + (check.passed ? "PASS" : "FAIL") + "] " + check.name +
           ": " + check.detail + "\n";
  }
  return out;
}

AdmissionReport run_admission(const PolicyRef& policy, const AdmissionOptions& options) {
  const PolicyDescriptor descriptor = resolve_policy(policy);
  AdmissionReport report;
  report.policy = policy.name;
  report.identity = descriptor.identity();
  if (descriptor.builtin) {
    AdmissionCheck check;
    check.name = "builtin";
    check.passed = true;
    check.detail = "paper policy; pinned directly by the golden-hash and parity suites";
    report.checks.push_back(std::move(check));
    return report;
  }

  AdmissionScope scope;
  report.checks.push_back(check_envelope(descriptor));
  if (!report.checks.back().passed) return report;  // fail fast: skip scenario gates

  RunResult tabular;
  report.checks.push_back(
      check_tabular_determinism(policy, descriptor, options, tabular));
  if (!report.checks.back().passed) return report;

  report.checks.push_back(check_parity(policy, descriptor, options, tabular));
  if (options.chaos_gate) report.checks.push_back(check_chaos(policy, options));
  return report;
}

AdmissionReport admit_policy(const PolicyRef& policy, const AdmissionOptions& options) {
  const AdmissionReport report = run_admission(policy, options);
  if (report.passed()) PolicyRegistry::global().mark_admitted(policy.name);
  return report;
}

void ensure_admitted(const PolicyRef& policy) {
  if (admission_in_progress) return;
  const PolicyDescriptor descriptor = resolve_policy(policy);
  if (descriptor.builtin) return;
  PolicyRegistry& registry = PolicyRegistry::global();
  if (registry.is_admitted(policy.name)) return;

  // One admission at a time: concurrent sweep workers dispatching the
  // same fresh policy serialize here, and the losers find it admitted.
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  if (registry.is_admitted(policy.name)) return;
  const AdmissionReport report = admit_policy(policy);
  if (!report.passed()) {
    throw util::ConfigError("policy '" + policy.name +
                            "' failed the admission harness:\n" + report.describe() +
                            "(run `anorctl policy admit --name " + policy.name +
                            "` for details)");
  }
}

}  // namespace anor::engine
