// anorctl — command-line front end for the ANOR framework.
//
//   anorctl types
//       List the registered job types and their calibrated properties.
//   anorctl gen-schedule --out FILE [--duration S] [--utilization F]
//       [--nodes N] [--seed K] [--all-types]
//       Generate a Poisson job-submission schedule file.
//   anorctl gen-targets --out FILE [--mean W] [--reserve W] [--duration S]
//       [--period S] [--seed K]
//       Generate a demand-response power-target file.
//   anorctl run --schedule FILE [--backend emulated|tabular] [--targets FILE]
//       [--budget W] [--policy NAME] [--policy-expr EXPR | --policy-file FILE]
//       [--misclassify TRUE=AS] [--nodes N] [--seed K]
//       Run a scenario on either backend and print reports + tracking.
//       --policy accepts any registered policy name (see `anorctl policy
//       list`); --policy-expr/--policy-file define an expression-DSL
//       policy inline (named by --policy, default "custom") — it must
//       pass admission (`anorctl policy admit`) before it will run.
//       Alternatively `--scenario FILE` loads a full ScenarioSpec JSON
//       (anor.scenario.v1); --backend still overrides its backend field.
//       Both backends emit the same anor.run_result.v1 report (--out).
//   anorctl policy list|show|validate|admit
//       Inspect and extend the policy registry.  `list` tabulates the
//       registered policies and their admission state; `show --name N`
//       prints one descriptor; `validate --expr E|--file F` parse-checks
//       an expression and prints its source hash; `admit --name N
//       [--expr E|--file F] [--duration S] [--nodes N] [--seed K]
//       [--no-chaos]` registers (if an expression is given) and runs the
//       admission harness — budget-envelope, tabular determinism,
//       cross-backend parity, chaos determinism — exiting nonzero on
//       rejection.
//   anorctl parity [--duration S] [--nodes N] [--budget W] [--seed K]
//       [--extra-policy NAME[,NAME...]]
//       Run the same scenario through the emulated cluster AND the tabular
//       simulator under all four built-in policies (plus any admitted
//       --extra-policy entries) and check the backends agree: the parity
//       contract (engine::parity_gaps: tracking p90 and mean slowdown gaps
//       below 0.25, QoS verdicts identical) and a consistent per-policy
//       slowdown ordering.  Exits nonzero on divergence.
//   anorctl sweep --grid FILE [--out FILE] [--results-out FILE]
//       [--run-workers N] [--no-cache] [--cache-dir DIR]
//       [--min-hit-rate F] [--quiet]
//       Expand an anor.sweep.v1 grid file and run every cell through the
//       batch executor: run-level worker pool, canonical-spec result
//       cache (one file per cell under .anor-cache/), and warm-start run
//       reuse.
//       Prints live per-cell progress and a summary table; --out writes
//       the full anor.sweep_result.v1 report, --results-out writes the
//       deterministic anor.sweep_results.v1 projection (byte-identical
//       across reruns of the same grid).  --min-hit-rate exits nonzero
//       if the cache hit rate lands below the threshold (CI smoke).
//   anorctl simulate [--nodes N] [--duration S] [--utilization F]
//       [--variation F] [--scale K] [--mean-per-node W] [--reserve-per-node W]
//       [--seed K] [--table-log FILE] [--artifacts DIR]
//       Run the tabular cluster simulator on a Poisson schedule of the
//       long job types (node counts scaled by --scale) tracking a
//       demand-response bid, and print QoS/tracking stats.  --table-log
//       appends the node and job tables every 10th step (paper Sec. 5.6)
//       without changing the run.  A tabular scenario file runs through
//       `run --scenario FILE --backend tabular` instead.
//   anorctl replay --report FILE
//       Summarize a saved experiment report (produced by run --out).
//   anorctl profile [--scenario FILE] [--backend emulated|tabular] [--nodes N]
//       [--duration S] [--utilization F] [--seed K] [--trace-out FILE]
//       [--metrics-out FILE] [--check]
//       Run a scenario with the span profiler enabled and print a
//       per-phase breakdown table (count, total, %wall, p50/p95/p99)
//       plus a Chrome trace (chrome://tracing / Perfetto).  Default
//       scenario: 1000 nodes tracking a demand-response target for an
//       hour.  --check validates the trace (parses, per-lane monotonic
//       timestamps, expected phases, >= 90% wall coverage) and exits
//       nonzero on failure.
//   anorctl metrics dump --dir DIR
//       Print the final metric snapshot of a run artifact directory
//       (written by run/simulate --artifacts, or any RunArtifactWriter)
//       in stable key-sorted order.
//   anorctl metrics expose --dir DIR
//       Print the same snapshot as a Prometheus text exposition.
//   anorctl metrics serve --dir DIR [--port P] [--once] [--timeout S]
//       Serve the exposition over HTTP on 127.0.0.1 (port 0 picks a free
//       port; --once exits after the first scrape).
//   anorctl trace export --dir DIR [--out FILE]
//       Rebuild Chrome trace_event JSON from an artifact's trace.jsonl
//       (load the result in chrome://tracing or ui.perfetto.dev).
//   anorctl chaos [--plan NAME | --plan-file FILE] [--seed K] [--duration S]
//       [--nodes N] [--band F] [--trace-out FILE] [--verify-determinism]
//       Run the closed-loop fault-injection scenario and report power
//       tracking, recovery latency, and leaked budget.  Exits nonzero if
//       tracking does not recover, budget leaks to dead jobs, or (with
//       --verify-determinism) two runs disagree on the fault-event trace.
//   anorctl selftest
//       Exercise the whole flow in a temporary directory (used by ctest).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "budget/policy_dsl.hpp"
#include "cluster/emulation.hpp"
#include "cluster/metrics_service.hpp"
#include "engine/policy_admission.hpp"
#include "engine/policy_registry.hpp"
#include "engine/runner.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/sweep.hpp"
#include "fault/chaos.hpp"
#include "platform/cluster_hw.hpp"
#include "sim/simulator.hpp"
#include "telemetry/prof/prof.hpp"
#include "telemetry/prof_export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/grid_signals.hpp"

namespace {

using namespace anor;

/// Tiny flag parser: --key value pairs plus boolean --key switches.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << key << "\n";
        std::exit(2);
      }
      key = key.substr(2);
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        // --key=value form.
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it != values_.end() ? std::strtod(it->second.c_str(), nullptr) : fallback;
  }
  std::uint64_t seed() const { return static_cast<std::uint64_t>(num("seed", 1)); }

  std::string require(const std::string& key) const {
    if (!has(key) || str(key).empty()) {
      std::cerr << "missing required flag --" << key << "\n";
      std::exit(2);
    }
    return str(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmd_types() {
  util::TextTable table({"name", "nodes", "T_min_s", "max_slowdown", "p_max_w", "p_min_w"});
  for (const auto& type : workload::nas_job_types()) {
    table.add_row({type.name, std::to_string(type.nodes),
                   util::TextTable::format_double(type.min_exec_time_s(), 0),
                   util::TextTable::format_percent(type.max_slowdown()),
                   util::TextTable::format_double(type.max_power_w, 0),
                   util::TextTable::format_double(type.min_power_w, 0)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_gen_schedule(const Args& args) {
  workload::PoissonScheduleConfig config;
  config.duration_s = args.num("duration", 3600.0);
  config.utilization = args.num("utilization", 0.95);
  config.cluster_nodes = static_cast<int>(args.num("nodes", 16));
  const auto& types =
      args.has("all-types") ? workload::nas_job_types() : workload::nas_long_job_types();
  const workload::Schedule schedule =
      workload::generate_poisson_schedule(types, config, util::Rng(args.seed()));
  schedule.save(args.require("out"));
  std::cout << "wrote " << schedule.jobs.size() << " job arrivals over "
            << config.duration_s << " s to " << args.str("out") << "\n";
  return 0;
}

int cmd_gen_targets(const Args& args) {
  const double duration = args.num("duration", 3600.0);
  const double period = args.num("period", 4.0);
  const std::string mode = args.str("mode", "dr");

  util::TimeSeries targets;
  if (mode == "dr") {
    workload::DemandResponseBid bid;
    bid.average_power_w = args.num("mean", workload::fig9_bid().average_power_w);
    bid.reserve_w = args.num("reserve", workload::fig9_bid().reserve_w);
    const workload::RandomWalkRegulation regulation(
        util::Rng(args.seed()).child("regulation"), duration + 60.0, period);
    targets = workload::make_power_target_series(bid, regulation, duration, period);
  } else if (mode == "carbon") {
    const workload::CarbonIntensityProfile profile(
        util::Rng(args.seed()).child("carbon"), duration + 60.0);
    targets = workload::targets_from_carbon(profile, args.num("low", 2300.0),
                                            args.num("high", 4300.0), duration,
                                            std::max(period, 60.0));
  } else if (mode == "tariff") {
    targets = workload::targets_from_tariff(workload::TouTariff::standard(),
                                            args.num("low", 2300.0),
                                            args.num("high", 4300.0), duration,
                                            std::max(period, 60.0));
  } else {
    std::cerr << "unknown --mode '" << mode << "' (dr|carbon|tariff)\n";
    return 2;
  }
  util::save_json_file(args.require("out"), workload::power_targets_to_json(targets));
  double lo = targets.values().front();
  double hi = lo;
  for (double v : targets.values()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::cout << "wrote " << targets.size() << " " << mode << " targets in [" << lo << ", "
            << hi << "] W to " << args.str("out") << "\n";
  return 0;
}

/// The emulation knobs anorctl has always run with (snappier control
/// cadences than the library defaults).
cluster::EmulationConfig run_base_config() {
  cluster::EmulationConfig base;
  base.scheduler.power_aware_admission = true;
  base.manager.control_period_s = 0.5;
  base.endpoint.period_s = 0.5;
  return base;
}

int cmd_run(const Args& args) {
  engine::ScenarioSpec spec;
  if (args.has("scenario")) {
    spec = engine::scenario_spec_from_json(util::load_json_file(args.str("scenario")));
  } else {
    spec.name = "run";
    spec.schedule = workload::Schedule::load(args.require("schedule"));
    // --policy accepts any registry name (built-in or registered custom);
    // --policy-expr/--policy-file define an inline expression-DSL policy
    // under that name (admission-gated on first dispatch).
    std::string expr;
    if (args.has("policy-expr")) {
      expr = args.str("policy-expr");
    } else if (args.has("policy-file")) {
      std::ifstream in(args.str("policy-file"));
      if (!in) {
        std::cerr << "cannot read --policy-file " << args.str("policy-file") << "\n";
        return 2;
      }
      std::string line;
      while (std::getline(in, line)) expr += line + " ";
    }
    if (expr.empty()) {
      spec.policy = engine::policy_from_string(args.str("policy", "characterized"));
    } else {
      spec.policy = engine::PolicyRef(args.str("policy", "custom"), expr);
    }
    spec.node_count = static_cast<int>(args.num("nodes", 16));
    spec.seed = args.seed();

    if (args.has("targets")) {
      spec.targets =
          workload::power_targets_from_json(util::load_json_file(args.str("targets")));
    } else if (args.has("budget")) {
      spec.static_budget_w = args.num("budget", 0.0);
    }

    if (args.has("misclassify")) {
      const std::string label = args.str("misclassify");
      const auto eq = label.find('=');
      if (eq == std::string::npos) {
        std::cerr << "--misclassify expects TRUE_TYPE=CLASSIFIED_AS\n";
        return 2;
      }
      workload::misclassify(spec.schedule, label.substr(0, eq), label.substr(eq + 1));
    }

    if (args.has("artifacts")) spec.artifact_dir = args.str("artifacts");
  }
  if (args.has("backend")) {
    spec.backend = engine::backend_from_string(args.str("backend"));
  }
  if (spec.static_budget_w && spec.tracking_reserve_w <= 0.0) {
    // A flat target has no span to derive a reserve from; normalize the
    // reported tracking error by the budget instead of a 1 W fallback.
    spec.tracking_reserve_w = *spec.static_budget_w;
  }

  std::cout << "running " << spec.schedule.jobs.size() << " jobs on " << spec.node_count
            << " nodes (" << engine::to_string(spec.backend) << " backend, "
            << engine::to_string(spec.policy) << " policy)...\n";
  const engine::RunResult result = engine::run_scenario(spec, run_base_config());
  if (!spec.artifact_dir.empty()) {
    std::cout << "wrote run artifacts to " << spec.artifact_dir << "\n";
  }

  util::TextTable table({"type", "jobs", "mean_slowdown", "sd"});
  for (const auto& [type, stats] : result.slowdown_by_type()) {
    table.add_row({type, std::to_string(stats.count()),
                   util::TextTable::format_percent(stats.mean()),
                   util::TextTable::format_percent(stats.stddev())});
  }
  table.print(std::cout);

  if (!result.target_w.empty()) {
    std::cout << "tracking: p90 error "
              << util::TextTable::format_percent(result.tracking.p90_error)
              << " of reserve-equivalent, within 30% "
              << util::TextTable::format_percent(result.tracking.fraction_within_30)
              << " of the time\n";
  }
  std::cout << "QoS worst 90th-pct degradation: "
            << util::TextTable::format_double(result.qos.worst_quantile(), 2) << "\n";
  if (args.has("out")) {
    engine::save_run_result(args.str("out"), result);
    std::cout << "wrote experiment report to " << args.str("out") << "\n";
  }
  return 0;
}

int cmd_parity(const Args& args) {
  const double duration = args.num("duration", 900.0);
  const int nodes = static_cast<int>(args.num("nodes", 8));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 7));
  const double budget_w = args.num("budget", 165.0 * nodes);

  workload::PoissonScheduleConfig sched_config;
  sched_config.duration_s = duration;
  sched_config.utilization = args.num("utilization", 0.8);
  sched_config.cluster_nodes = nodes;
  const workload::Schedule base_schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), sched_config, util::Rng(seed));
  std::cout << "parity: " << base_schedule.jobs.size() << " jobs on " << nodes
            << " nodes, " << budget_w << " W budget, both backends x four policies\n";

  // The four paper built-ins, plus any extra registry policies the caller
  // names (--extra-policy NAME, repeatable via comma separation).
  std::vector<engine::PolicyRef> policies;
  for (const std::string& name : engine::PolicyRegistry::builtin_names()) {
    policies.push_back(engine::PolicyRef(name));
  }
  if (args.has("extra-policy")) {
    std::string list = args.str("extra-policy");
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t comma = list.find(',', start);
      const std::string name = list.substr(
          start, comma == std::string::npos ? std::string::npos : comma - start);
      if (!name.empty()) policies.push_back(engine::policy_from_string(name));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  // policy -> backend
  std::map<std::string, std::map<std::string, engine::ParitySummary>> grid;

  util::TextTable table(
      {"policy", "backend", "jobs", "mean_slowdown", "p90_tracking", "qos"});
  for (const engine::PolicyRef& policy : policies) {
    workload::Schedule schedule = base_schedule;
    if (engine::expects_misclassification(policy)) {
      workload::misclassify(schedule, "bt.D.x", "is.D.x");
    }
    for (const engine::Backend backend :
         {engine::Backend::kEmulated, engine::Backend::kTabular}) {
      engine::ScenarioSpec spec;
      spec.name = "parity-" + engine::to_string(policy);
      spec.backend = backend;
      spec.schedule = schedule;
      spec.policy = policy;
      spec.static_budget_w = budget_w;
      // Normalize tracking error by the budget (a flat target has no span
      // to derive a reserve from), so the columns compare across backends.
      spec.tracking_reserve_w = budget_w;
      spec.node_count = nodes;
      spec.seed = seed;
      const engine::RunResult result = engine::run_scenario(spec, run_base_config());
      const engine::ParitySummary cell = engine::parity_summary(result);
      grid[engine::to_string(policy)][engine::to_string(backend)] = cell;
      table.add_row({engine::to_string(policy), engine::to_string(backend),
                     std::to_string(result.jobs_completed),
                     util::TextTable::format_percent(cell.mean_slowdown),
                     util::TextTable::format_percent(cell.p90_tracking),
                     cell.qos_ok ? "ok" : "violated"});
    }
  }
  table.print(std::cout);

  int rc = 0;
  for (const auto& [policy, cells] : grid) {
    const engine::ParitySummary& emu = cells.at("emulated");
    const engine::ParitySummary& tab = cells.at("tabular");
    const engine::ParityGaps gaps = engine::parity_gaps(emu, tab);
    if (!gaps.tracking_ok()) {
      std::cerr << "parity: " << policy << ": tracking p90 diverged ("
                << emu.p90_tracking << " vs " << tab.p90_tracking << ")\n";
      rc = 1;
    }
    if (!gaps.slowdown_ok()) {
      std::cerr << "parity: " << policy << ": mean slowdown diverged ("
                << emu.mean_slowdown << " vs " << tab.mean_slowdown << ")\n";
      rc = 1;
    }
    if (!gaps.qos_agree) {
      std::cerr << "parity: " << policy << ": QoS verdicts disagree\n";
      rc = 1;
    }
  }
  // The paper's qualitative ordering must hold on both backends: the
  // performance-aware budgeter with correct models beats the uniform one.
  for (const char* backend : {"emulated", "tabular"}) {
    if (grid.at("characterized").at(backend).mean_slowdown >
        grid.at("uniform").at(backend).mean_slowdown + 1e-9) {
      std::cerr << "parity: " << backend
                << ": characterized policy slower than uniform\n";
      rc = 1;
    }
  }
  std::cout << (rc == 0 ? "parity OK\n" : "parity FAILED\n");
  return rc;
}

int cmd_sweep(const Args& args) {
  const engine::sweep::SweepGrid grid =
      engine::sweep::SweepGrid::from_json(util::load_json_file(args.require("grid")));

  engine::sweep::SweepOptions options;
  options.run_workers = static_cast<int>(args.num("run-workers", 1));
  if (args.has("no-cache")) {
    options.cache = engine::sweep::CacheConfig::off();
  } else if (args.has("cache-dir")) {
    options.cache.dir = args.str("cache-dir");
  }

  std::cout << "sweep '" << grid.name << "': " << grid.cell_count() << " cells, "
            << (options.run_workers == 0 ? "auto" : std::to_string(options.run_workers))
            << " run worker(s), cache "
            << (options.cache.enabled() ? options.cache.dir : std::string("off")) << "\n";
  if (!args.has("quiet")) {
    options.on_cell_done = [](const engine::sweep::SweepCellResult& cell,
                              std::size_t done, std::size_t total) {
      std::cout << "  [" << done << "/" << total << "] " << cell.cell.name << ": "
                << to_string(cell.cache) << ", "
                << util::TextTable::format_double(cell.wall_s, 3) << " s\n";
    };
  }

  const engine::sweep::SweepReport report = engine::sweep::run_sweep(grid, options);

  util::TextTable table(
      {"cell", "cache", "wall_s", "jobs", "mean_slowdown", "p90_tracking", "qos"});
  for (const engine::sweep::SweepCellResult& cell : report.cells) {
    util::RunningStats slowdowns;
    for (const auto& job : cell.result.completed) slowdowns.add(job.slowdown());
    table.add_row({cell.cell.name, std::string(to_string(cell.cache)),
                   util::TextTable::format_double(cell.wall_s, 3),
                   std::to_string(cell.result.jobs_completed),
                   util::TextTable::format_percent(slowdowns.mean()),
                   cell.result.target_w.empty()
                       ? "-"
                       : util::TextTable::format_percent(cell.result.tracking.p90_error),
                   cell.result.qos.satisfied() ? "ok" : "violated"});
  }
  table.print(std::cout);

  const auto& stats = report.cache_stats;
  std::cout << report.cells.size() << " cells in "
            << util::TextTable::format_double(report.wall_s, 2) << " s: "
            << report.cells_computed << " computed, " << report.cache_hits
            << " cache hit(s), " << stats.invalidated << " invalidated\n";

  if (args.has("out")) {
    util::save_json_file(args.str("out"), engine::sweep::sweep_report_json(report, 2));
    std::cout << "wrote sweep report to " << args.str("out") << "\n";
  }
  if (args.has("results-out")) {
    util::save_json_file(args.str("results-out"),
                         engine::sweep::sweep_results_deterministic_json(report, 2));
    std::cout << "wrote deterministic results to " << args.str("results-out") << "\n";
  }

  if (args.has("min-hit-rate")) {
    const double min_rate = args.num("min-hit-rate", 0.0);
    const double rate = stats.hit_rate();
    if (rate + 1e-12 < min_rate) {
      std::cerr << "sweep: cache hit rate " << util::TextTable::format_percent(rate)
                << " below required " << util::TextTable::format_percent(min_rate)
                << "\n";
      return 1;
    }
    std::cout << "cache hit rate " << util::TextTable::format_percent(rate)
              << " >= " << util::TextTable::format_percent(min_rate) << "\n";
  }
  return 0;
}

/// Run `anorctl simulate` into `result`; returns the exit code.
int simulate(const Args& args, sim::SimResult& result) {
  sim::SimConfig config;
  config.node_count = static_cast<int>(args.num("nodes", 1000));
  config.duration_s = args.num("duration", 3600.0);
  config.perf_variation_sigma = platform::sigma_from_band99(args.num("variation", 0.0));
  config.job_types = sim::standard_sim_types(true, static_cast<int>(args.num("scale", 25)));
  const workload::DemandResponseBid bid{config.node_count * args.num("mean-per-node", 150.0),
                                       config.node_count * args.num("reserve-per-node", 18.0)};
  config.tracking_warmup_s = 300.0;

  std::ofstream log;
  if (args.has("table-log")) {
    log.open(args.str("table-log"));
    if (!log) {
      std::cerr << "cannot open " << args.str("table-log") << "\n";
      return 1;
    }
  }
  std::unique_ptr<telemetry::RunArtifactWriter> artifacts;
  if (args.has("artifacts")) {
    telemetry::RunArtifactConfig artifact_config;
    artifact_config.dir = args.str("artifacts");
    artifact_config.run_name = "simulate";
    artifacts = std::make_unique<telemetry::RunArtifactWriter>(
        artifact_config, telemetry::MetricsRegistry::global(),
        &telemetry::TraceRecorder::global());
  }

  sim::TabularSimulator simulator =
      sim::make_simulation(config, bid, args.num("utilization", 0.75), args.seed());
  // The per-step table log the paper's simulator appends (Sec. 5.6),
  // thinned to every 10th step to keep files manageable.
  if (log.is_open()) simulator.set_table_log(&log, 10);
  simulator.set_artifacts(artifacts.get());
  result = simulator.run();
  if (log.is_open()) std::cout << "table log written to " << args.str("table-log") << "\n";
  if (artifacts != nullptr) {
    artifacts->finalize();
    std::cout << "wrote run artifacts to " << artifacts->dir() << "\n";
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  sim::SimResult result;
  if (const int rc = simulate(args, result); rc != 0) return rc;

  std::cout << "completed " << result.jobs_completed << "/" << result.jobs_submitted
            << " jobs, mean utilization "
            << util::TextTable::format_percent(result.mean_utilization) << "\n";
  util::TextTable table({"type", "q90"});
  for (const auto& [type, q] : result.qos.percentile_by_type(90.0)) {
    table.add_row({type, util::TextTable::format_double(q, 2)});
  }
  table.print(std::cout);
  std::cout << "tracking: p90 error "
            << util::TextTable::format_percent(result.tracking.p90_error)
            << ", within 30% " << util::TextTable::format_percent(
                   result.tracking.fraction_within_30)
            << " of the time\n";
  return 0;
}

int cmd_replay(const Args& args) {
  const util::Json report = util::load_json_file(args.require("report"));
  const util::JsonArray& jobs = report.at("jobs").as_array();

  std::map<std::string, util::RunningStats> by_type;
  for (const util::Json& job : jobs) {
    by_type[job.at("type").as_string()].add(job.at("slowdown").as_number());
  }
  std::cout << "experiment report: " << jobs.size() << " jobs, "
            << report.number_or("end_time_s", 0.0) << " virtual seconds\n";
  util::TextTable table({"type", "jobs", "mean_slowdown", "sd"});
  for (const auto& [type, stats] : by_type) {
    table.add_row({type, std::to_string(stats.count()),
                   util::TextTable::format_percent(stats.mean()),
                   util::TextTable::format_percent(stats.stddev())});
  }
  table.print(std::cout);
  if (report.contains("tracking")) {
    const util::Json& tracking = report.at("tracking");
    std::cout << "tracking: p90 error "
              << util::TextTable::format_percent(tracking.number_or("p90_error", 0.0))
              << ", within 30% "
              << util::TextTable::format_percent(
                     tracking.number_or("fraction_within_30", 0.0))
              << " of the time\n";
  }
  if (report.contains("qos")) {
    std::cout << "QoS worst p90 degradation: "
              << util::TextTable::format_double(
                     report.at("qos").number_or("worst_p90_degradation", 0.0), 2)
              << (report.at("qos").bool_or("satisfied", false) ? " (satisfied)"
                                                               : " (violated)")
              << "\n";
  }
  return 0;
}

/// The default `anorctl profile` workload: a demand-response tracking
/// scenario (Poisson arrivals at 75% utilization, random-walk regulation
/// around a per-node bid) on the tabular backend.  --scenario FILE loads
/// a full spec instead.
engine::ScenarioSpec profile_spec(const Args& args) {
  if (args.has("scenario")) {
    return engine::scenario_spec_from_json(util::load_json_file(args.str("scenario")));
  }
  engine::ScenarioSpec spec;
  spec.name = "profile";
  spec.backend = engine::Backend::kTabular;
  spec.policy = engine::PolicyRef("characterized");
  spec.node_count = static_cast<int>(args.num("nodes", 1000));
  spec.seed = args.seed();
  const double duration = args.num("duration", 3600.0);

  workload::PoissonScheduleConfig sched;
  sched.duration_s = duration;
  sched.utilization = args.num("utilization", 0.75);
  sched.cluster_nodes = spec.node_count;
  spec.schedule = workload::generate_poisson_schedule(
      workload::nas_long_job_types(), sched, util::Rng(spec.seed).child("schedule"));

  workload::DemandResponseBid bid;
  bid.average_power_w = spec.node_count * args.num("mean-per-node", 150.0);
  bid.reserve_w = spec.node_count * args.num("reserve-per-node", 18.0);
  const workload::RandomWalkRegulation regulation(
      util::Rng(spec.seed).child("regulation"), duration + 60.0, 4.0);
  spec.targets = workload::make_power_target_series(bid, regulation, duration, 4.0);
  spec.tracking_warmup_s = 300.0;
  spec.tracking_reserve_w = bid.reserve_w;
  return spec;
}

int cmd_profile(const Args& args) {
  engine::ScenarioSpec spec = profile_spec(args);
  if (args.has("backend")) {
    spec.backend = engine::backend_from_string(args.str("backend"));
  }

  namespace prof = telemetry::prof;
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.set_trace_capacity(
      static_cast<std::size_t>(args.num("trace-capacity", 65536)));

  std::cout << "profiling " << spec.schedule.jobs.size() << " jobs on "
            << spec.node_count << " nodes (" << engine::to_string(spec.backend)
            << " backend)...\n";

  // Build the backend first, then arm the profiler and time run() tightly
  // so construction cost does not dilute the coverage number.
  std::uint64_t steps = 0;
  double wall_s = 0.0;
  engine::RunResult result;
  if (spec.backend == engine::Backend::kEmulated) {
    cluster::EmulatedCluster emu = engine::make_emulated_cluster(spec, run_base_config());
    profiler.reset();
    profiler.set_enabled(true);
    const auto start = std::chrono::steady_clock::now();
    result = emu.run();
    wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } else {
    sim::TabularSimulator simulator = engine::make_tabular_simulator(spec);
    profiler.reset();
    profiler.set_enabled(true);
    const auto start = std::chrono::steady_clock::now();
    result = simulator.run();
    wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    steps = simulator.steps_taken();
  }
  profiler.set_enabled(false);

  const std::vector<prof::PhaseReport> report = profiler.phase_report();
  const double wall_ns = wall_s * 1e9;
  double engine_total_ns = 0.0;
  util::TextTable table(
      {"phase", "count", "total_ms", "%wall", "mean_us", "p50_us", "p95_us", "p99_us"});
  for (const prof::PhaseReport& phase : report) {
    if (phase.name.rfind("engine.", 0) == 0 && phase.name != "engine.tick") {
      engine_total_ns += phase.total_ns;
    }
    table.add_row(
        {phase.name, std::to_string(phase.count),
         util::TextTable::format_double(phase.total_ns / 1e6, 2),
         util::TextTable::format_percent(wall_ns > 0.0 ? phase.total_ns / wall_ns : 0.0),
         util::TextTable::format_double(phase.mean_ns() / 1e3, 1),
         util::TextTable::format_double(phase.p50_ns / 1e3, 1),
         util::TextTable::format_double(phase.p95_ns / 1e3, 1),
         util::TextTable::format_double(phase.p99_ns / 1e3, 1)});
  }
  table.print(std::cout);

  const double coverage = wall_ns > 0.0 ? engine_total_ns / wall_ns : 0.0;
  std::cout << "wall " << util::TextTable::format_double(wall_s, 2) << " s, "
            << result.jobs_completed << " jobs completed";
  if (steps > 0 && wall_s > 0.0) {
    std::cout << ", " << util::TextTable::format_double(steps / wall_s, 0) << " steps/s";
  }
  std::cout << ", engine phase coverage " << util::TextTable::format_percent(coverage)
            << " of wall\n";
  if (profiler.dropped_spans() > 0) {
    std::cout << "note: " << profiler.dropped_spans() << "/" << profiler.total_spans()
              << " spans dropped from the trace ring (raise --trace-capacity); "
                 "phase statistics still cover every span\n";
  }

  const std::string trace_path = args.str("trace-out", "profile_trace.json");
  {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot open " << trace_path << "\n";
      return 1;
    }
    telemetry::write_prof_chrome_trace(out, profiler);
  }
  std::cout << "wrote Chrome trace (" << (profiler.total_spans() - profiler.dropped_spans())
            << " spans) to " << trace_path << "\n";
  if (args.has("metrics-out")) {
    std::ofstream out(args.str("metrics-out"));
    if (!out) {
      std::cerr << "cannot open " << args.str("metrics-out") << "\n";
      return 1;
    }
    out << telemetry::prometheus_exposition(telemetry::MetricsRegistry::global(),
                                            profiler);
    std::cout << "wrote Prometheus exposition to " << args.str("metrics-out") << "\n";
  }

  if (!args.has("check")) return 0;
  int rc = 0;
  const util::Json trace = util::load_json_file(trace_path);
  const util::JsonArray& events = trace.at("traceEvents").as_array();
  std::set<int> lanes;
  std::map<int, double> last_ts;
  bool has_thread_names = false;
  for (const util::Json& event : events) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "M") {
      has_thread_names = true;
      continue;
    }
    if (ph != "X") continue;
    const int tid = static_cast<int>(event.at("tid").as_number());
    const double ts = event.at("ts").as_number();
    lanes.insert(tid);
    const auto it = last_ts.find(tid);
    if (it != last_ts.end() && ts + 1e-9 < it->second) {
      std::cerr << "profile check: lane " << tid << " timestamps not monotonic ("
                << ts << " after " << it->second << ")\n";
      rc = 1;
    }
    last_ts[tid] = it != last_ts.end() ? std::max(it->second, ts) : ts;
  }
  if (lanes.empty()) {
    std::cerr << "profile check: trace has no span events\n";
    rc = 1;
  }
  if (!has_thread_names) {
    std::cerr << "profile check: trace has no thread_name metadata\n";
    rc = 1;
  }
  std::set<std::string> have;
  for (const prof::PhaseReport& phase : report) have.insert(phase.name);
  std::vector<std::string> required = {"engine.tick"};
  if (spec.backend == engine::Backend::kTabular) {
    // complete_jobs/admit_arrivals/log_sampler are housekeeping components
    // and share the engine.housekeeping span (see DiscreteEngine::SpanMode).
    required = {"engine.tick", "engine.node_update", "engine.control",
                "engine.housekeeping"};
  }
  for (const std::string& name : required) {
    if (have.count(name) == 0) {
      std::cerr << "profile check: phase '" << name << "' missing from report\n";
      rc = 1;
    }
  }
  const double min_coverage = args.num("min-coverage", 0.9);
  if (coverage < min_coverage) {
    std::cerr << "profile check: engine phase coverage "
              << util::TextTable::format_percent(coverage) << " below "
              << util::TextTable::format_percent(min_coverage) << "\n";
    rc = 1;
  }
  std::cout << (rc == 0 ? "profile check OK\n" : "profile check FAILED\n");
  return rc;
}

int cmd_metrics_dump(const Args& args) {
  const std::string dir = args.require("dir");
  const util::Json metrics = util::load_json_file(dir + "/metrics.json");
  // Rows sorted by metric key explicitly (not left to the JSON object's
  // internal ordering) so diffs and CI greps stay deterministic.
  std::vector<std::pair<std::string, const util::Json*>> rows;
  for (const auto& [key, entry] : metrics.as_object()) rows.emplace_back(key, &entry);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::TextTable table({"metric", "type", "value", "sum"});
  for (const auto& [key, entry] : rows) {
    const std::string type = entry->at("type").as_string();
    table.add_row({key, type,
                   util::TextTable::format_double(entry->number_or("value", 0.0), 3),
                   type == "histogram"
                       ? util::TextTable::format_double(entry->number_or("sum", 0.0), 3)
                       : ""});
  }
  table.print(std::cout);
  return 0;
}

int cmd_metrics_expose(const Args& args) {
  const std::string dir = args.require("dir");
  const util::Json metrics = util::load_json_file(dir + "/metrics.json");
  std::cout << telemetry::prometheus_exposition_from_artifact(metrics);
  return 0;
}

int cmd_metrics_serve(const Args& args) {
  const std::string dir = args.require("dir");
  const util::Json metrics = util::load_json_file(dir + "/metrics.json");
  const std::string body = telemetry::prometheus_exposition_from_artifact(metrics);
  cluster::MetricsExpositionServer server(
      [body] { return body; }, static_cast<std::uint16_t>(args.num("port", 0)));
  std::cout << "serving metrics exposition on 127.0.0.1:" << server.port()
            << (args.has("once") ? " (exit after first scrape)" : "") << "\n"
            << std::flush;
  const double timeout_s = args.num("timeout", 0.0);
  const auto start = std::chrono::steady_clock::now();
  int served_total = 0;
  for (;;) {
    served_total += server.poll();
    if (args.has("once") && served_total > 0) break;
    if (timeout_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >
            timeout_s) {
      std::cerr << "metrics serve: timed out after " << timeout_s << " s\n";
      return served_total > 0 ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::cout << "served " << served_total << " scrape(s)\n";
  return 0;
}

int cmd_trace_export(const Args& args) {
  const std::string dir = args.require("dir");
  std::ifstream in(dir + "/trace.jsonl");
  if (!in) {
    std::cerr << "cannot open " << dir << "/trace.jsonl\n";
    return 1;
  }
  // Count events first so the rebuilt ring never overwrites.
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  telemetry::TraceRecorder recorder(std::max<std::size_t>(lines.size(), 1));
  for (const std::string& line : lines) {
    const util::Json event = util::Json::parse(line);
    const std::string ph = event.at("ph").as_string();
    const double t_s = event.number_or("t_s", 0.0);
    const std::string name = event.at("name").as_string();
    const std::string cat = event.at("cat").as_string();
    if (ph == "B") {
      recorder.begin(name, cat, t_s);
    } else if (ph == "E") {
      recorder.end(name, cat, t_s);
    } else if (ph == "X") {
      recorder.complete(name, cat, t_s, event.number_or("dur_s", 0.0));
    } else if (ph == "C") {
      recorder.counter(name, cat, t_s, event.number_or("value", 0.0));
    } else {
      recorder.instant(name, cat, t_s, event.number_or("value", 0.0));
    }
  }
  const std::string out_path = args.str("out", dir + "/trace_export.json");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  recorder.export_chrome_json(out);
  std::cout << "exported " << lines.size() << " trace events to " << out_path << "\n";
  return 0;
}

int cmd_chaos(const Args& args) {
  fault::ChaosConfig config;
  if (args.has("plan-file")) {
    config.plan = fault::FaultPlan::load(args.str("plan-file"));
  } else {
    config.plan = fault::FaultPlan::preset(args.str("plan", "drop10_crash1"));
  }
  config.seed = args.seed();
  config.duration_s = args.num("duration", 240.0);
  config.node_count = static_cast<int>(args.num("nodes", 8));
  config.recovery_band_frac = args.num("band", 0.05);

  std::cout << "chaos: plan '" << config.plan.name << "' (fault seed "
            << config.plan.seed << ") on " << config.node_count << " nodes for "
            << config.duration_s << " s...\n";
  const fault::ChaosResult result = fault::run_chaos(config);

  bool deterministic = true;
  if (args.has("verify-determinism")) {
    const fault::ChaosResult replay = fault::run_chaos(config);
    deterministic = replay.event_trace == result.event_trace;
    std::cout << "determinism: " << result.event_trace.size() << "-byte event trace "
              << (deterministic ? "identical" : "DIVERGED") << " across two runs\n";
  }

  if (args.has("trace-out")) {
    std::ofstream out(args.str("trace-out"));
    if (!out) {
      std::cerr << "cannot open " << args.str("trace-out") << "\n";
      return 1;
    }
    out << result.event_trace;
    std::cout << "wrote fault-event trace to " << args.str("trace-out") << "\n";
  }

  std::cout << "faults injected: " << result.fault_events << ", leases expired: "
            << result.leases_expired << "\n";
  std::cout << "tracking: mean error "
            << util::TextTable::format_percent(result.tracking.mean_error)
            << " of band, final error "
            << util::TextTable::format_percent(result.final_error_frac)
            << " of target (band "
            << util::TextTable::format_percent(config.recovery_band_frac) << ")\n";
  if (result.recovered) {
    std::cout << "recovered: yes, latency "
              << util::TextTable::format_double(result.recovery_latency_s, 1)
              << " s after the last scheduled disruption\n";
  } else {
    std::cout << "recovered: NO (final error outside the band)\n";
  }
  std::cout << "leaked budget: "
            << util::TextTable::format_double(result.leaked_budget_w, 1)
            << " W held by dead jobs\n";

  int rc = 0;
  if (!result.recovered) {
    std::cerr << "chaos: tracking did not recover\n";
    rc = 1;
  }
  if (result.leaked_budget_w > 0.0) {
    std::cerr << "chaos: budget leaked to dead jobs\n";
    rc = 1;
  }
  if (!deterministic) {
    std::cerr << "chaos: fault-event traces diverged between identical runs\n";
    rc = 1;
  }
  return rc;
}

int cmd_selftest() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "anorctl-selftest";
  fs::create_directories(dir);
  const std::string schedule_path = (dir / "schedule.json").string();
  const std::string targets_path = (dir / "targets.json").string();

  // gen-schedule (short horizon so the selftest stays fast)
  {
    const char* argv[] = {"anorctl", "gen-schedule", "--out", schedule_path.c_str(),
                          "--duration", "300", "--utilization", "0.8", "--nodes", "8"};
    Args args(10, const_cast<char**>(argv), 2);
    if (cmd_gen_schedule(args) != 0) return 1;
  }
  // gen-targets scaled to 8 nodes
  {
    const char* argv[] = {"anorctl", "gen-targets", "--out", targets_path.c_str(),
                          "--mean", "1650", "--reserve", "450", "--duration", "600"};
    Args args(10, const_cast<char**>(argv), 2);
    if (cmd_gen_targets(args) != 0) return 1;
  }
  // gen-targets in carbon mode (exercises the grid-signal path)
  {
    const std::string carbon_path = (dir / "carbon.json").string();
    const char* argv[] = {"anorctl", "gen-targets", "--out", carbon_path.c_str(),
                          "--mode", "carbon", "--duration", "600"};
    Args args(8, const_cast<char**>(argv), 2);
    if (cmd_gen_targets(args) != 0) return 1;
  }
  // run, writing the experiment report + telemetry artifacts
  const std::string report_path = (dir / "report.json").string();
  const std::string artifact_dir = (dir / "artifacts").string();
  {
    const char* argv[] = {"anorctl", "run", "--schedule", schedule_path.c_str(),
                          "--targets", targets_path.c_str(), "--nodes", "8",
                          "--policy", "adjusted", "--misclassify", "bt.D.x=is.D.x",
                          "--out", report_path.c_str(),
                          "--artifacts", artifact_dir.c_str()};
    Args args(16, const_cast<char**>(argv), 2);
    if (cmd_run(args) != 0) return 1;
  }
  // the telemetry artifacts load back: final metrics dump + trace export
  {
    const char* argv[] = {"anorctl", "metrics", "dump", "--dir", artifact_dir.c_str()};
    Args args(5, const_cast<char**>(argv), 3);
    if (cmd_metrics_dump(args) != 0) return 1;
  }
  {
    const char* argv[] = {"anorctl", "trace", "export", "--dir", artifact_dir.c_str()};
    Args args(5, const_cast<char**>(argv), 3);
    if (cmd_trace_export(args) != 0) return 1;
    const util::Json trace = util::load_json_file(artifact_dir + "/trace_export.json");
    if (trace.at("traceEvents").as_array().empty()) {
      std::cerr << "selftest: exported trace has no events\n";
      return 1;
    }
  }
  // the report parses back, holds per-job records, and replays
  {
    const util::Json report = util::load_json_file(report_path);
    if (report.at("jobs").as_array().empty()) {
      std::cerr << "selftest: report has no jobs\n";
      return 1;
    }
    const char* argv[] = {"anorctl", "replay", "--report", report_path.c_str()};
    Args args(4, const_cast<char**>(argv), 2);
    if (cmd_replay(args) != 0) return 1;
  }
  // simulate (small)
  {
    const char* argv[] = {"anorctl", "simulate", "--nodes", "60", "--duration", "600",
                          "--scale", "1", "--variation", "0.15"};
    Args args(10, const_cast<char**>(argv), 2);
    if (cmd_simulate(args) != 0) return 1;
  }
  // the table log records the run it rides on: at a --scale other than 1,
  // the same flags with and without --table-log finish the same jobs
  {
    const std::string log_path = (dir / "table_log.csv").string();
    const char* argv[] = {"anorctl", "simulate", "--nodes", "200", "--duration", "900",
                          "--scale", "5", "--seed", "5", "--table-log", log_path.c_str()};
    sim::SimResult plain;
    sim::SimResult logged;
    if (simulate(Args(10, const_cast<char**>(argv), 2), plain) != 0) return 1;
    if (simulate(Args(12, const_cast<char**>(argv), 2), logged) != 0) return 1;
    if (logged.jobs_submitted != plain.jobs_submitted ||
        logged.jobs_completed != plain.jobs_completed) {
      std::cerr << "selftest: simulate --table-log ran " << logged.jobs_completed << "/"
                << logged.jobs_submitted << " jobs, without it "
                << plain.jobs_completed << "/" << plain.jobs_submitted << "\n";
      return 1;
    }
  }
  std::cout << "selftest OK\n";
  return 0;
}

/// Read an expression from --expr or --file (one expression, newlines
/// folded to spaces).  Empty string when neither flag is present.
std::string policy_expr_arg(const Args& args) {
  if (args.has("expr")) return args.str("expr");
  if (args.has("file")) {
    std::ifstream in(args.str("file"));
    if (!in) throw util::ConfigError("cannot read --file " + args.str("file"));
    std::string expr;
    std::string line;
    while (std::getline(in, line)) expr += line + " ";
    return expr;
  }
  return "";
}

/// The built-ins' rule name; every registered policy's budgeter is "custom".
std::string budgeter_label(const engine::PolicyDescriptor& d) {
  return d.builtin ? d.budgeter_factory()->name() : "custom";
}

int cmd_policy_list() {
  engine::PolicyRegistry& registry = engine::PolicyRegistry::global();
  util::TextTable table({"policy", "kind", "budgeter", "admitted", "labels", "summary"});
  for (const std::string& name : registry.names()) {
    const engine::PolicyDescriptor d = registry.get(name);
    const std::string kind = d.builtin ? "builtin"
                             : !d.dsl_source.empty() ? "expression"
                                                     : "native";
    table.add_row({name, kind, budgeter_label(d), registry.is_admitted(name) ? "yes" : "no",
                   d.expects_misclassification ? "expected" : "-", d.summary});
  }
  table.print(std::cout);
  return 0;
}

int cmd_policy_show(const Args& args) {
  const engine::PolicyDescriptor d =
      engine::PolicyRegistry::global().get(args.require("name"));
  std::cout << "policy:    " << d.name << "\n"
            << "identity:  " << d.identity() << "\n"
            << "kind:      "
            << (d.builtin ? "builtin" : !d.dsl_source.empty() ? "expression" : "native")
            << "\n"
            << "budgeter:  " << budgeter_label(d) << "\n"
            << "feedback:  " << (d.feedback ? "on" : "off") << "\n"
            << "labels:    "
            << (d.expects_misclassification ? "expects misclassification" : "none")
            << (d.strip_labels_for_tabular ? " (stripped for tabular)" : "") << "\n"
            << "admitted:  "
            << (engine::PolicyRegistry::global().is_admitted(d.name) ? "yes" : "no")
            << "\n";
  if (!d.dsl_source.empty()) std::cout << "expr:      " << d.dsl_source << "\n";
  if (!d.summary.empty()) std::cout << "summary:   " << d.summary << "\n";
  return 0;
}

int cmd_policy_validate(const Args& args) {
  const std::string expr = policy_expr_arg(args);
  if (expr.empty()) {
    std::cerr << "policy validate: provide --expr EXPR or --file FILE\n";
    return 2;
  }
  const budget::DslExpr parsed = budget::DslExpr::parse(expr);  // throws on error
  std::cout << "expression OK (source hash " << util::hex16(budget::dsl_source_hash(expr))
            << ")\n";
  if (parsed.uses_noise()) {
    std::cout << "warning: expression calls noise() — it will FAIL the admission "
                 "determinism gates\n";
  }
  return 0;
}

int cmd_policy_admit(const Args& args) {
  const std::string name = args.require("name");
  const std::string expr = policy_expr_arg(args);
  if (!expr.empty()) {
    engine::PolicyRegistry::global().register_expression_policy(
        name, expr, args.str("summary", ""));
  }
  engine::AdmissionOptions options;
  options.duration_s = args.num("duration", options.duration_s);
  options.node_count = static_cast<int>(args.num("nodes", options.node_count));
  options.utilization = args.num("utilization", options.utilization);
  options.seed = static_cast<std::uint64_t>(args.num("seed", 7));
  if (args.has("no-chaos")) options.chaos_gate = false;
  options.chaos_duration_s = args.num("chaos-duration", options.chaos_duration_s);

  std::cout << "admitting policy '" << name << "'...\n";
  const engine::AdmissionReport report =
      engine::admit_policy(engine::PolicyRef(name), options);
  std::cout << report.describe();
  std::cout << "policy '" << report.policy << "' (" << report.identity << "): "
            << (report.passed() ? "ADMITTED" : "REJECTED") << "\n";
  return report.passed() ? 0 : 1;
}

void usage() {
  std::cerr << "usage: anorctl <types|gen-schedule|gen-targets|run|parity|sweep|simulate|"
               "profile|replay|chaos|policy|metrics|trace|selftest> "
               "[--flags]\n(see the header comment in tools/anorctl.cpp)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  // `policy`, `metrics`, and `trace` take a subcommand word before the flags.
  if (command == "policy") {
    const std::string sub = argc > 2 ? argv[2] : "";
    const Args sub_args(argc, argv, 3);
    try {
      if (sub == "list") return cmd_policy_list();
      if (sub == "show") return cmd_policy_show(sub_args);
      if (sub == "validate") return cmd_policy_validate(sub_args);
      if (sub == "admit") return cmd_policy_admit(sub_args);
    } catch (const std::exception& error) {
      std::cerr << "anorctl: " << error.what() << "\n";
      return 1;
    }
    std::cerr << "usage: anorctl policy <list|show|validate|admit> [--flags]\n";
    return 2;
  }
  if (command == "metrics" || command == "trace") {
    const std::string sub = argc > 2 ? argv[2] : "";
    const Args sub_args(argc, argv, 3);
    try {
      if (command == "metrics" && sub == "dump") return cmd_metrics_dump(sub_args);
      if (command == "metrics" && sub == "expose") return cmd_metrics_expose(sub_args);
      if (command == "metrics" && sub == "serve") return cmd_metrics_serve(sub_args);
      if (command == "trace" && sub == "export") return cmd_trace_export(sub_args);
    } catch (const std::exception& error) {
      std::cerr << "anorctl: " << error.what() << "\n";
      return 1;
    }
    std::cerr << "usage: anorctl metrics <dump|expose|serve> --dir DIR | "
                 "anorctl trace export --dir DIR [--out FILE]\n";
    return 2;
  }
  const Args args(argc, argv, 2);
  try {
    if (command == "types") return cmd_types();
    if (command == "gen-schedule") return cmd_gen_schedule(args);
    if (command == "gen-targets") return cmd_gen_targets(args);
    if (command == "run") return cmd_run(args);
    if (command == "parity") return cmd_parity(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "profile") return cmd_profile(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "chaos") return cmd_chaos(args);
    if (command == "selftest") return cmd_selftest();
  } catch (const std::exception& error) {
    std::cerr << "anorctl: " << error.what() << "\n";
    return 1;
  }
  usage();
  return 2;
}
