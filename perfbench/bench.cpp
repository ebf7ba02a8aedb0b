// perfbench: runs one named workload of the ANOR stack and prints its
// metrics as one JSON document (the last line of stdout).  run.py builds
// this program, picks the metrics BENCHMARK.json names and adds the
// contract line; see run.py for the workloads and what each one stresses.
//
// The benchmark drives the framework only through its public front door:
// anor.sweep.v1 grid documents materialized by SweepMaterializer (or a
// ScenarioSpec built from workload generators), make_tabular_simulator /
// make_emulated_cluster, run_sweep, run_result_json and the full-fidelity
// run_result_to_cache_json for the result hash.  Every run is a closed
// batch: jobs arrive in virtual time, so there is no arrival schedule on
// the wall clock.
//
// Untraced mode (--trace 0) repeats set-up + run + export until --seconds
// have passed and reports medians.  Traced mode (--trace 1) alternates
// untraced and traced repetitions: the traced ones turn on the span
// profiler and read registry counter deltas for the per-layer metrics,
// the untraced ones give the tracing overhead and the hash to compare.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/emulation.hpp"
#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

namespace {

using namespace anor;
namespace prof = telemetry::prof;
namespace sweep = engine::sweep;
using Clock = std::chrono::steady_clock;
using util::Json;
using util::JsonArray;
using util::JsonObject;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- workloads -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  std::string work_dir = ".";
};

/// Size of a workload.  Node counts and horizons are set so that one
/// repetition takes a few seconds at most and a run measures several.
struct Shape {
  int nodes = 0;
  double duration_s = 0.0;
  double utilization = 0.0;
  double warmup_s = 0.0;
  int step_workers = 0;  // tabular sharded stepping (<= 1 serial)
  int run_workers = 1;   // sweep only
};

/// Full and toy (self-test) sizes; throws std::invalid_argument for an
/// unknown workload.
Shape shape_of(const Options& options) {
  const std::string& w = options.workload;
  const bool toy = options.toy;
  //                                      nodes  horizon  util  warm-up  step  run
  if (w == "tab-dense") return toy ? Shape{300, 600, 0.75, 120, 0, 1}
                                   : Shape{20000, 1200, 0.75, 300, 0, 1};
  if (w == "tab-wide") return toy ? Shape{2000, 600, 0.75, 120, 2, 1}
                                  : Shape{200000, 3600, 0.75, 300, 2, 1};
  if (w == "emu-fig9") return toy ? Shape{8, 600, 0.95, 120, 0, 1}
                                  : Shape{64, 3600, 0.95, 300, 0, 1};
  if (w == "sweep-grid") return toy ? Shape{64, 600, 0.75, 120, 0, 2}
                                    : Shape{1000, 1200, 0.75, 300, 0, 2};
  throw std::invalid_argument("--workload must be one of tab-dense, tab-wide, emu-fig9, "
                              "sweep-grid");
}

bool is_sweep(const Options& options) { return options.workload == "sweep-grid"; }
bool is_emulated(const Options& options) { return options.workload == "emu-fig9"; }

/// The anor.sweep.v1 document for a workload: a base spec plus a
/// generate block (NAS-long Poisson arrivals, demand-response targets of
/// 150 W +- 18 W per node).  Scenario workloads are single-cell grids; the
/// sweep crosses the four built-in policies with three node-variation
/// levels (99 % bands of 0, +-15 % and +-30 %, as in Fig. 11).
Json grid_document(const Options& options, const Shape& shape, std::uint64_t seed) {
  JsonObject base;
  base["name"] = Json(options.workload);
  base["backend"] = Json(is_emulated(options) ? "emulated" : "tabular");
  base["policy"] = Json(is_emulated(options) ? "adjusted" : "characterized");
  base["node_count"] = Json(shape.nodes);
  base["seed"] = Json(static_cast<double>(seed));
  base["step_workers"] = Json(shape.step_workers);
  base["tracking_warmup_s"] = Json(shape.warmup_s);
  base["tracking_reserve_w"] = Json(18.0 * shape.nodes);

  JsonObject generate;
  generate["duration_s"] = Json(shape.duration_s);
  generate["utilization"] = Json(shape.utilization);
  generate["signal"] = Json("dr");
  generate["long_types_only"] = Json(true);
  generate["misclassify"] = Json("bt.D.x=is.D.x");

  JsonArray axes;
  if (is_sweep(options)) {
    JsonObject policy_axis;
    policy_axis["field"] = Json("policy");
    policy_axis["values"] =
        Json(JsonArray{Json("uniform"), Json("characterized"), Json("misclassified"),
                       Json("adjusted")});
    JsonObject sigma_axis;
    sigma_axis["field"] = Json("perf_variation_sigma");
    sigma_axis["values"] = Json(JsonArray{Json(0.0), Json(0.06), Json(0.12)});
    axes.push_back(Json(std::move(policy_axis)));
    axes.push_back(Json(std::move(sigma_axis)));
  }

  JsonObject grid;
  grid["schema"] = Json("anor.sweep.v1");
  grid["name"] = Json(options.workload);
  grid["base"] = Json(std::move(base));
  grid["generate"] = Json(std::move(generate));
  grid["axes"] = Json(std::move(axes));
  return Json(std::move(grid));
}

/// tab-wide: the grid generator has no job-size knob, so the spec is built
/// from the workload generators directly.  Every NAS-long type is scaled
/// to nodes/40 nodes per job (BENCH_sim's shape: ~700 jobs per hour at any
/// cluster size), with the same demand-response targets as a grid cell.
engine::ScenarioSpec wide_spec(const Options& options, const Shape& shape,
                               std::uint64_t seed) {
  const int scale = std::max(1, shape.nodes / 40);
  std::vector<workload::JobType> types;
  for (const workload::JobType& type : workload::nas_long_job_types()) {
    types.push_back(workload::scaled_job_type(type, scale));
  }
  workload::PoissonScheduleConfig config;
  config.duration_s = shape.duration_s;
  config.utilization = shape.utilization;
  config.cluster_nodes = shape.nodes;

  engine::ScenarioSpec spec;
  spec.name = options.workload;
  spec.backend = engine::Backend::kTabular;
  spec.policy = engine::PolicyRef("characterized");
  spec.node_count = shape.nodes;
  spec.seed = seed;
  spec.step_workers = shape.step_workers;
  spec.schedule = workload::generate_poisson_schedule(
      types, config, util::Rng(seed).child("schedule"));

  workload::DemandResponseBid bid;
  bid.average_power_w = 150.0 * shape.nodes;
  bid.reserve_w = 18.0 * shape.nodes;
  const workload::RandomWalkRegulation regulation(
      util::Rng(seed).child("regulation"), shape.duration_s + 60.0, 4.0);
  spec.targets = workload::make_power_target_series(bid, regulation, shape.duration_s, 4.0);
  spec.tracking_warmup_s = shape.warmup_s;
  spec.tracking_reserve_w = bid.reserve_w;
  spec.validate();
  return spec;
}

/// Document (grid text) -> runnable spec, as a user's tool would do it.
engine::ScenarioSpec materialize(const Options& options, const Shape& shape,
                                 std::uint64_t seed, const std::string& document) {
  if (options.workload == "tab-wide") return wide_spec(options, shape, seed);
  const sweep::SweepGrid grid = sweep::SweepGrid::from_json(Json::parse(document));
  sweep::SweepMaterializer materializer(grid);
  return materializer.materialize(grid.expand().front());
}

// --- measurement helpers ---------------------------------------------------

/// Sends the framework's log output to memory for the whole run, so that
/// terminal writes stay out of the timings, and counts WARN/ERROR lines.
class LogCapture {
 public:
  LogCapture() {
    util::Logger& logger = util::Logger::instance();
    logger.set_level(util::LogLevel::kWarn);
    logger.clear_component_levels();
    logger.set_sink(&sink_);
  }
  ~LogCapture() { util::Logger::instance().set_sink(nullptr); }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  /// WARN and ERROR lines written since the last call.
  int take_warn_lines() {
    int count = 0;
    std::istringstream lines(sink_.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("[WARN", 0) == 0 || line.rfind("[ERROR", 0) == 0) ++count;
    }
    sink_.str("");
    sink_.clear();
    return count;
  }

 private:
  std::ostringstream sink_;
};

/// One set-up + run + export repetition.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;        // document -> runnable backend(s)
  double grid_s = 0.0;         // sweep: grid parse + expand
  double run_s = 0.0;          // scenario run; sweep pass 1 (compute + cache write)
  double hit_pass_s = 0.0;     // sweep pass 2 (served from the disk cache)
  double export_s = 0.0;
  double total_s = 0.0;        // what the user waits for: set-up, run, export
  std::size_t export_bytes = 0;
  double virtual_s = 0.0;
  std::vector<double> step_us;  // emulated: every step() timed from outside
  std::size_t cells = 0;
  std::vector<double> pass1_cell_us, pass2_cell_us;
  sweep::CacheStats pass1_cache, pass2_cache;
  std::uint64_t cache_bytes_written = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  double tracking_p90 = 0.0;
  double mean_slowdown = 0.0;
  double qos_worst_p90 = 0.0;
  double rss_mib = 0.0;  // process high-water mark right after the timed section
  std::string hash;      // empty when the repetition was not hashed
  int warn_lines = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

void check(Rep& rep, bool ok, const std::string& what) {
  if (!ok) rep.problems.push_back(what);
}

/// Quality figures and completion checks shared by both result shapes.
void score_results(Rep& rep, const std::vector<const engine::RunResult*>& results) {
  double slowdown_sum = 0.0;
  std::size_t slowdown_count = 0;
  double tracking_sum = 0.0;
  for (const engine::RunResult* result : results) {
    rep.jobs_submitted += result->jobs_submitted;
    rep.jobs_completed += result->jobs_completed;
    check(rep, result->jobs_completed == result->jobs_submitted,
          "jobs completed " + std::to_string(result->jobs_completed) + " of " +
              std::to_string(result->jobs_submitted));
    for (const engine::CompletedJob& job : result->completed) {
      slowdown_sum += job.slowdown();
      ++slowdown_count;
    }
    check(rep, std::isfinite(result->tracking.p90_error), "tracking error is not finite");
    check(rep, std::isfinite(result->qos.worst_quantile()), "QoS degradation is not finite");
    tracking_sum += result->tracking.p90_error;
    rep.qos_worst_p90 = std::max(rep.qos_worst_p90, result->qos.worst_quantile());
  }
  check(rep, std::isfinite(slowdown_sum), "slowdown is not finite");
  rep.mean_slowdown = slowdown_count > 0 ? slowdown_sum / static_cast<double>(slowdown_count) : 0.0;
  rep.tracking_p90 = results.empty() ? 0.0 : tracking_sum / static_cast<double>(results.size());
}

#define BENCH_SPAN(name) ANOR_PROF_SCOPE("bench." name)

Rep scenario_rep(const Options& options, const Shape& shape, std::uint64_t seed, bool hash) {
  Rep rep;
  const std::string document = grid_document(options, shape, seed).dump();
  auto t = Clock::now();
  engine::ScenarioSpec spec;
  {
    BENCH_SPAN("materialize");
    spec = materialize(options, shape, seed, document);
  }
  rep.setup_s = seconds_since(t);

  engine::RunResult result;
  if (is_emulated(options)) {
    t = Clock::now();
    std::optional<cluster::EmulatedCluster> emu;
    {
      BENCH_SPAN("build");
      emu.emplace(engine::make_emulated_cluster(spec));
    }
    rep.setup_s += seconds_since(t);
    t = Clock::now();
    {
      BENCH_SPAN("run");
      rep.step_us.reserve(static_cast<std::size_t>(2.0 * spec.schedule.duration_s / 0.25));
      for (;;) {
        const auto step_start = Clock::now();
        const bool more = emu->step();
        rep.step_us.push_back(seconds_since(step_start) * 1e6);
        if (!more) break;
      }
      result = emu->run();  // already drained: finalizes and returns at once
      engine::finalize_tracking(result, spec.tracking_reserve_w, spec.tracking_warmup_s);
    }
    rep.run_s = seconds_since(t);
  } else {
    t = Clock::now();
    std::optional<sim::TabularSimulator> simulator;
    {
      BENCH_SPAN("build");
      simulator.emplace(engine::make_tabular_simulator(spec));
    }
    rep.setup_s += seconds_since(t);
    t = Clock::now();
    {
      BENCH_SPAN("run");
      result = simulator->run();
      engine::finalize_tracking(result, spec.tracking_reserve_w, spec.tracking_warmup_s);
    }
    rep.run_s = seconds_since(t);
  }
  rep.virtual_s = result.end_time_s;

  t = Clock::now();
  {
    BENCH_SPAN("export");
    rep.export_bytes = engine::run_result_json(result).dump().size();
  }
  rep.export_s = seconds_since(t);
  rep.total_s = rep.setup_s + rep.run_s + rep.export_s;
  rep.rss_mib = peak_rss_mib();

  if (hash) rep.hash = fnv1a_hex(sweep::run_result_to_cache_json(result).dump());
  check(rep, static_cast<std::size_t>(result.jobs_submitted) == spec.schedule.jobs.size(),
        "result lost submitted jobs");
  score_results(rep, {&result});
  rep.attempted = static_cast<std::uint64_t>(result.jobs_submitted);
  return rep;
}

std::uint64_t directory_bytes(const std::filesystem::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

Rep sweep_rep(const Options& options, const Shape& shape, std::uint64_t seed, int run_index,
              bool hash) {
  Rep rep;
  const std::string document = grid_document(options, shape, seed).dump();
  const auto setup_start = Clock::now();
  sweep::SweepGrid grid;
  std::vector<sweep::SweepCell> cells;
  {
    BENCH_SPAN("grid");
    grid = sweep::SweepGrid::from_json(Json::parse(document));
    cells = grid.expand();
  }
  rep.grid_s = seconds_since(setup_start);
  rep.cells = cells.size();
  // Set-up also turns every cell into a runnable backend (materialize and
  // cold build), the per-cell work run_sweep repeats inside pass 1.  Timed
  // here it is attributed to the layers, and the set-up figure is not a
  // microseconds-long parse that reads 11 to 19 us from run to run.  The
  // user waits for the parse only, so total_s counts just that.
  sweep::SweepMaterializer materializer(grid);
  for (const sweep::SweepCell& cell : cells) {
    engine::ScenarioSpec spec;
    {
      BENCH_SPAN("materialize");
      spec = materializer.materialize(cell);
    }
    BENCH_SPAN("build");
    (void)engine::make_tabular_simulator(spec);
  }
  rep.setup_s = seconds_since(setup_start);

  const std::filesystem::path cache_dir =
      std::filesystem::path(options.work_dir) /
      ("cache-" + std::to_string(getpid()) + "-" + std::to_string(run_index));
  std::filesystem::remove_all(cache_dir);
  sweep::SweepOptions sweep_options;
  sweep_options.run_workers = shape.run_workers;
  sweep_options.warm_start = true;
  sweep_options.cache.dir = cache_dir.string();

  auto t = Clock::now();
  sweep::SweepReport pass1;
  {
    BENCH_SPAN("run_sweep");
    pass1 = sweep::run_sweep(grid, sweep_options);
  }
  rep.run_s = seconds_since(t);
  t = Clock::now();
  {
    BENCH_SPAN("export");
    rep.export_bytes = sweep::sweep_report_json(pass1).dump().size();
  }
  rep.export_s = seconds_since(t);
  rep.cache_bytes_written = directory_bytes(cache_dir);

  t = Clock::now();
  sweep::SweepReport pass2;
  {
    BENCH_SPAN("run_sweep");
    pass2 = sweep::run_sweep(grid, sweep_options);
  }
  rep.hit_pass_s = seconds_since(t);
  rep.total_s = rep.grid_s + rep.run_s + rep.export_s;
  rep.rss_mib = peak_rss_mib();
  std::filesystem::remove_all(cache_dir);

  rep.pass1_cache = pass1.cache_stats;
  rep.pass2_cache = pass2.cache_stats;
  std::vector<const engine::RunResult*> results;
  for (const sweep::SweepCellResult& cell : pass1.cells) {
    results.push_back(&cell.result);
    rep.virtual_s += cell.result.end_time_s;
    rep.pass1_cell_us.push_back(cell.wall_s * 1e6);
  }
  for (const sweep::SweepCellResult& cell : pass2.cells) rep.pass2_cell_us.push_back(cell.wall_s * 1e6);

  score_results(rep, results);
  check(rep, pass1.cells_computed == rep.cells, "pass 1 did not compute every cell");
  check(rep, pass2.cache_hits == rep.cells, "pass 2 was not served entirely from the cache");
  if (hash) {
    const std::string bytes1 = sweep::sweep_results_deterministic_json(pass1).dump();
    rep.hash = fnv1a_hex(bytes1);
    check(rep, bytes1 == sweep::sweep_results_deterministic_json(pass2).dump(),
          "pass 2 results differ from pass 1");
  }
  rep.attempted = 2 * rep.cells;
  return rep;
}

/// One repetition.  Hashing the full-fidelity result costs about as much
/// as a tabular run, so only the repetitions that are compared are hashed.
Rep one_rep(const Options& options, const Shape& shape, std::uint64_t seed, int run_index,
            LogCapture& logs, bool hash) {
  Rep rep = is_sweep(options) ? sweep_rep(options, shape, seed, run_index, hash)
                              : scenario_rep(options, shape, seed, hash);
  rep.warn_lines = logs.take_warn_lines();
  // A repetition whose output check fails counts all of its operations
  // (jobs, or cells for the sweep) as failed.
  if (!rep.problems.empty()) rep.failed = rep.attempted;
  return rep;
}

// --- traced repetitions ------------------------------------------------------

struct PhaseStat {
  std::uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Per-phase statistics since the last reset, with self time: a span's
/// duration minus the durations of the spans directly nested inside it
/// on the same thread.
std::map<std::string, PhaseStat> collect_phases() {
  prof::Profiler& profiler = prof::Profiler::global();
  std::map<std::string, PhaseStat> phases;
  for (const prof::PhaseReport& report : profiler.phase_report()) {
    PhaseStat& stat = phases[report.name];
    stat.calls = report.count;
    stat.total_ns = report.total_ns;
    stat.self_ns = report.total_ns;
    stat.p50_ns = report.p50_ns;
    stat.p99_ns = report.p99_ns;
  }
  const std::vector<std::string> names = profiler.phase_names();
  const double ns_per_tick = profiler.ns_per_tick();
  for (prof::LaneSnapshot& lane : profiler.lanes()) {
    // Parents first: earlier start, then longer, then shallower (the
    // engine's chained spans can share both endpoints with their tick).
    std::sort(lane.events.begin(), lane.events.end(),
              [](const prof::SpanEvent& a, const prof::SpanEvent& b) {
                if (a.start_ticks != b.start_ticks) return a.start_ticks < b.start_ticks;
                if (a.dur_ticks != b.dur_ticks) return a.dur_ticks > b.dur_ticks;
                return a.depth < b.depth;
              });
    std::vector<const prof::SpanEvent*> open;
    for (const prof::SpanEvent& event : lane.events) {
      const std::int64_t end = event.start_ticks + event.dur_ticks;
      while (!open.empty() && open.back()->start_ticks + open.back()->dur_ticks < end) {
        open.pop_back();
      }
      if (!open.empty()) {
        phases[names[open.back()->phase]].self_ns -=
            static_cast<double>(event.dur_ticks) * ns_per_tick;
      }
      open.push_back(&event);
    }
  }
  for (auto& [name, stat] : phases) stat.self_ns = std::max(stat.self_ns, 0.0);
  return phases;
}

/// Counter and histogram values of the global registry, summed over labels
/// (histograms: observation count, and `<name>.sum`).
std::map<std::string, double> registry_values() {
  std::map<std::string, double> values;
  for (const telemetry::MetricSnapshot& metric :
       telemetry::MetricsRegistry::global().snapshot()) {
    if (metric.kind == telemetry::MetricKind::kGauge) continue;
    values[metric.name] += metric.value;
    if (metric.kind == telemetry::MetricKind::kHistogram) values[metric.name + ".sum"] += metric.sum;
  }
  return values;
}

struct TracedRep {
  Rep rep;
  std::map<std::string, PhaseStat> phases;
  std::map<std::string, double> counters;  // deltas over the repetition
  std::uint64_t dropped_spans = 0;
};

TracedRep traced_rep(const Options& options, const Shape& shape, std::uint64_t seed,
                     int run_index, LogCapture& logs) {
  prof::Profiler& profiler = prof::Profiler::global();
  const std::map<std::string, double> before = registry_values();
  profiler.reset();
  profiler.set_enabled(true);
  TracedRep out;
  out.rep = one_rep(options, shape, seed, run_index, logs, /*hash=*/true);
  out.rep.traced = true;
  profiler.set_enabled(false);
  out.phases = collect_phases();
  out.dropped_spans = profiler.dropped_spans();
  for (const auto& [name, value] : registry_values()) {
    const auto it = before.find(name);
    out.counters[name] = value - (it != before.end() ? it->second : 0.0);
  }
  return out;
}

// --- metrics -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, from untraced repetitions.  The first four apply to
/// every workload, are never 0 and are the ones BENCHMARK.json bounds.  The
/// quality figures (of the first input) are exact for an input but differ
/// widely between seeds, and failed_frac is 0 in a healthy run, so these
/// are printed and not bounded; the result hash guards the results.  The
/// last four apply only where the workload has the mechanism.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"total_s", "s"},
    {"sim_rate", "vs/s"},
    {"peak_rss_mb", "MiB"},
    {"tracking_p90_err", "fraction"},
    {"mean_slowdown", "fraction"},
    {"qos_worst_p90", "ratio"},
    {"failed_frac", "fraction"},
    {"control_step_p50_us", "us"},
    {"control_step_p99_us", "us"},
    {"cells_per_s", "cells/s"},
    {"hit_cells_per_s", "cells/s"},
};

/// Per-layer metrics, from traced repetitions.  Every name is reported on
/// every workload; a layer a workload does not use reads 0.
const MetricDef kPerLayer[] = {
    {"workload.materialize_ms", "ms"},
    {"workload.jobs", "count"},
    {"engine.build_ms", "ms"},
    {"export.run_result_ms", "ms"},
    {"export.bytes", "bytes"},
    {"engine.tick.calls", "count"},
    {"engine.tick.p50_us", "us"},
    {"engine.tick.p99_us", "us"},
    {"engine.coverage", "fraction"},
    {"engine.node_update.self_ms", "ms"},
    {"sim.refresh.calls", "count"},
    {"sim.refresh.self_ms", "ms"},
    {"engine.housekeeping.self_ms", "ms"},
    {"engine.control.self_ms", "ms"},
    {"pool.parallel_for.self_ms", "ms"},
    {"pool.shard.calls", "count"},
    {"pool.shard.self_ms", "ms"},
    {"budget.solve.calls", "count"},
    {"budget.solve.self_ms", "ms"},
    {"budget.solve.p99_us", "us"},
    {"budget.memo_hit_ratio", "fraction"},
    {"budget.memo_lookups", "count"},
    {"budget.bisect_iters_mean", "count"},
    {"engine.hardware.self_ms", "ms"},
    {"node.msr.reads", "count"},
    {"node.msr.writes", "count"},
    {"node.rapl.limit_writes", "count"},
    {"engine.job_control.self_ms", "ms"},
    {"job.controller.control_steps", "count"},
    {"job.governor.cap_writes", "count"},
    {"job.governor.cap_write_ratio", "fraction"},
    {"job.modeler.refit_attempts", "count"},
    {"job.modeler.refit_accept_ratio", "fraction"},
    {"engine.manager.self_ms", "ms"},
    {"engine.scheduler.self_ms", "ms"},
    {"engine.complete_jobs.self_ms", "ms"},
    {"channel.send.calls", "count"},
    {"channel.send.self_ms", "ms"},
    {"channel.poll.self_ms", "ms"},
    {"channel.receive.calls", "count"},
    {"cluster.manager.rebudgets", "count"},
    {"cluster.transport.inproc.sent", "count"},
    {"transport.send_failed", "count"},
    {"retry.queued", "count"},
    {"retry.attempts", "count"},
    {"transport.send_failed_ratio", "fraction"},
    {"liveness.lease_expired", "count"},
    {"liveness.model_expired", "count"},
    {"log.warn_lines", "count"},
    {"sweep.grid_ms", "ms"},
    {"sweep.pass1.cell.p50_us", "us"},
    {"sweep.pass1.cell.p99_us", "us"},
    {"sweep.pass2.cell.p50_us", "us"},
    {"sweep.pass2.cell.p99_us", "us"},
    {"sweep.cells_computed", "count"},
    {"sweep.cache_hits", "count"},
    {"cache.hit_ratio", "fraction"},
    {"cache.invalidated", "count"},
    {"cache.bytes_written", "bytes"},
    {"trace.overhead", "fraction"},
    {"prof.dropped_spans", "count"},
};

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Per-layer values of one traced repetition (trace.overhead is added by
/// the caller, which also has the untraced repetitions).
std::map<std::string, double> layer_values(const Options& options, const Shape& shape,
                                           const TracedRep& traced) {
  const Rep& rep = traced.rep;
  const auto phase = [&](const std::string& name) {
    const auto it = traced.phases.find(name);
    return it != traced.phases.end() ? it->second : PhaseStat{};
  };
  const auto count = [&](const std::string& name) {
    const auto it = traced.counters.find(name);
    return it != traced.counters.end() ? it->second : 0.0;
  };
  const auto self_ms = [&](const std::string& name) { return phase(name).self_ns / 1e6; };

  std::map<std::string, double> v;
  v["workload.materialize_ms"] = phase("bench.materialize").total_ns / 1e6;
  v["workload.jobs"] = rep.jobs_submitted;
  v["engine.build_ms"] = phase("bench.build").total_ns / 1e6;
  v["export.run_result_ms"] = phase("bench.export").total_ns / 1e6;
  v["export.bytes"] = static_cast<double>(rep.export_bytes);
  const PhaseStat tick = phase("engine.tick");
  v["engine.tick.calls"] = static_cast<double>(tick.calls);
  v["engine.tick.p50_us"] = tick.p50_ns / 1e3;
  v["engine.tick.p99_us"] = tick.p99_ns / 1e3;
  // Engine spans over run wall; the sweep's ticks run on its run workers.
  const double run_wall_ns = is_sweep(options)
                                 ? rep.run_s * 1e9 * shape.run_workers
                                 : phase("bench.run").total_ns;
  v["engine.coverage"] = ratio(tick.total_ns, run_wall_ns);
  for (const char* name : {"engine.node_update", "sim.refresh", "engine.housekeeping",
                           "engine.control", "pool.parallel_for", "pool.shard",
                           "budget.solve", "engine.hardware", "engine.job_control",
                           "engine.manager", "engine.scheduler", "engine.complete_jobs",
                           "channel.send", "channel.poll"}) {
    v[std::string(name) + ".self_ms"] = self_ms(name);
  }
  for (const char* name : {"sim.refresh", "pool.shard", "budget.solve", "channel.send",
                           "channel.receive"}) {
    v[std::string(name) + ".calls"] = static_cast<double>(phase(name).calls);
  }
  v["budget.solve.p99_us"] = phase("budget.solve").p99_ns / 1e3;
  const double memo_lookups = count("budget.memo_hits") + count("budget.memo_misses");
  v["budget.memo_lookups"] = memo_lookups;
  v["budget.memo_hit_ratio"] = ratio(count("budget.memo_hits"), memo_lookups);
  v["budget.bisect_iters_mean"] =
      ratio(count("budget.bisect_iters.sum"), count("budget.bisect_iters"));
  for (const char* name :
       {"node.msr.reads", "node.msr.writes", "node.rapl.limit_writes",
        "job.controller.control_steps", "job.governor.cap_writes", "job.modeler.refit_attempts",
        "cluster.manager.rebudgets", "cluster.transport.inproc.sent", "transport.send_failed",
        "retry.queued", "retry.attempts", "liveness.lease_expired", "liveness.model_expired",
        "sweep.cells_computed", "sweep.cache_hits"}) {
    v[name] = count(name);
  }
  v["job.governor.cap_write_ratio"] =
      ratio(count("job.governor.cap_writes"),
            count("job.governor.cap_writes") + count("job.governor.cap_writes_suppressed"));
  v["job.modeler.refit_accept_ratio"] =
      ratio(count("job.modeler.refit_accepted"), count("job.modeler.refit_attempts"));
  v["transport.send_failed_ratio"] =
      ratio(count("transport.send_failed"), count("cluster.transport.inproc.sent"));
  v["log.warn_lines"] = rep.warn_lines;
  if (is_sweep(options)) {
    v["sweep.grid_ms"] = rep.grid_s * 1e3;
    v["sweep.pass1.cell.p50_us"] = quantile(rep.pass1_cell_us, 0.50);
    v["sweep.pass1.cell.p99_us"] = quantile(rep.pass1_cell_us, 0.99);
    v["sweep.pass2.cell.p50_us"] = quantile(rep.pass2_cell_us, 0.50);
    v["sweep.pass2.cell.p99_us"] = quantile(rep.pass2_cell_us, 0.99);
    // The serving pass: every lookup should hit.
    v["cache.hit_ratio"] = rep.pass2_cache.hit_rate();
    v["cache.invalidated"] =
        static_cast<double>(rep.pass1_cache.invalidated + rep.pass2_cache.invalidated);
    v["cache.bytes_written"] = static_cast<double>(rep.cache_bytes_written);
  }
  v["prof.dropped_spans"] = static_cast<double>(traced.dropped_spans);
  return v;
}

Json metric_json(double value, const char* unit) {
  JsonObject m;
  m["value"] = Json(value);
  m["unit"] = Json(unit);
  return Json(std::move(m));
}

/// Run wall of a repetition for the tracing overhead.
double rep_wall(const Rep& rep) { return rep.run_s + rep.hit_pass_s; }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--toy") {
      options.toy = true;
    } else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  Shape shape;
  try {
    shape = shape_of(options);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);
  // Rings large enough that no span of a traced repetition is dropped
  // (self times need the whole nesting; emu-fig9 records ~2.6M spans on the
  // main thread); pages are touched only when used.
  if (options.trace) prof::Profiler::global().set_trace_capacity(std::size_t{1} << 22);

  LogCapture logs;
  std::vector<Rep> untraced;
  std::vector<TracedRep> traced;
  const auto start = Clock::now();
  int run_index = 0;  // names each repetition's cache directory
  // Repetition i runs input seed*1000+i, so that a run's medians span
  // several inputs and differ less from seed to seed.  Untraced: at least
  // three repetitions, then until the time is used.  Traced: an untraced
  // and a traced repetition of each input, at least one pair.
  do {
    const std::uint64_t seed = options.seed * 1000 + untraced.size();
    untraced.push_back(
        one_rep(options, shape, seed, run_index++, logs, options.trace || untraced.empty()));
    if (options.trace) traced.push_back(traced_rep(options, shape, seed, run_index++, logs));
  } while (seconds_since(start) < options.seconds ||
           (!options.trace && untraced.size() < 3));

  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Rep& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& p : rep.problems) problems.push_back(p);
  };
  for (const Rep& rep : untraced) account(rep);
  for (std::size_t i = 0; i < traced.size(); ++i) {
    Rep& rep = traced[i].rep;
    account(rep);
    if (rep.hash != untraced[i].hash) {
      problems.push_back("traced result hash " + rep.hash + " differs from untraced " +
                         untraced[i].hash);
      failed += rep.attempted - rep.failed;
    }
  }
  const Rep& first = untraced.front();

  JsonObject metrics;
  JsonArray phase_table;
  double run_wall_ms = 0.0;
  if (!options.trace) {
    std::vector<double> setup, total, rate, step_p50, step_p99, cells_rate, hit_rate;
    for (const Rep& rep : untraced) {
      setup.push_back(rep.setup_s);
      total.push_back(rep.total_s);
      rate.push_back(ratio(rep.virtual_s, rep.run_s));
      if (!rep.step_us.empty()) {
        step_p50.push_back(quantile(rep.step_us, 0.50));
        step_p99.push_back(quantile(rep.step_us, 0.99));
      }
      if (rep.cells > 0) {
        cells_rate.push_back(ratio(static_cast<double>(rep.cells), rep.run_s));
        hit_rate.push_back(ratio(static_cast<double>(rep.cells), rep.hit_pass_s));
      }
    }
    std::map<std::string, double> v = {
        {"setup_s", median(setup)},
        {"total_s", median(total)},
        {"sim_rate", median(rate)},
        {"peak_rss_mb", first.rss_mib},
        {"tracking_p90_err", first.tracking_p90},
        {"mean_slowdown", first.mean_slowdown},
        {"qos_worst_p90", first.qos_worst_p90},
        {"failed_frac", ratio(static_cast<double>(failed), static_cast<double>(attempted))},
    };
    if (!step_p50.empty()) {
      v["control_step_p50_us"] = median(step_p50);
      v["control_step_p99_us"] = median(step_p99);
    }
    if (!cells_rate.empty()) {
      v["cells_per_s"] = median(cells_rate);
      v["hit_cells_per_s"] = median(hit_rate);
    }
    for (const MetricDef& def : kEndToEnd) {
      const auto it = v.find(def.name);
      if (it != v.end()) metrics[def.name] = metric_json(it->second, def.unit);
    }
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::vector<double>> phase_self, phase_share, phase_calls;
    std::vector<double> traced_wall, untraced_wall;
    for (const Rep& rep : untraced) untraced_wall.push_back(rep_wall(rep));
    for (const TracedRep& t : traced) {
      traced_wall.push_back(rep_wall(t.rep));
      for (const auto& [name, value] : layer_values(options, shape, t)) {
        samples[name].push_back(value);
      }
      const double wall_ns = rep_wall(t.rep) * 1e9;
      for (const auto& [name, stat] : t.phases) {
        phase_self[name].push_back(stat.self_ns / 1e6);
        phase_share[name].push_back(ratio(stat.self_ns, wall_ns));
        phase_calls[name].push_back(static_cast<double>(stat.calls));
      }
    }
    samples["trace.overhead"] = {ratio(median(traced_wall), median(untraced_wall)) - 1.0};
    for (const MetricDef& def : kPerLayer) {
      const auto it = samples.find(def.name);
      metrics[def.name] = metric_json(it != samples.end() ? median(it->second) : 0.0, def.unit);
    }
    for (const auto& [name, self] : phase_self) {
      JsonObject row;
      row["phase"] = Json(name);
      row["calls"] = Json(median(phase_calls[name]));
      row["self_ms"] = Json(median(self));
      row["share"] = Json(median(phase_share[name]));
      phase_table.push_back(Json(std::move(row)));
    }
    run_wall_ms = median(traced_wall) * 1e3;
  }

  JsonObject shape_json;
  shape_json["nodes"] = Json(shape.nodes);
  shape_json["duration_s"] = Json(shape.duration_s);
  shape_json["utilization"] = Json(shape.utilization);
  shape_json["step_workers"] = Json(shape.step_workers);
  shape_json["run_workers"] = Json(shape.run_workers);

  JsonArray problem_list;
  for (const std::string& p : problems) problem_list.push_back(Json(p));
  JsonObject out;
  out["workload"] = Json(options.workload);
  out["seed"] = Json(static_cast<double>(options.seed));
  out["trace"] = Json(options.trace);
  out["toy"] = Json(options.toy);
  out["shape"] = Json(std::move(shape_json));
  out["repetitions"] = Json(untraced.size() + traced.size());
  out["jobs"] = Json(first.jobs_submitted);
  out["result_hash"] = Json(first.hash);  // the first input, seed*1000
  out["correct"] = Json(problems.empty());
  out["attempted"] = Json(static_cast<double>(attempted));
  out["failed"] = Json(static_cast<double>(failed));
  out["problems"] = Json(std::move(problem_list));
  out["metrics"] = Json(std::move(metrics));
  // Per-repetition figures behind the medians (untraced repetitions).
  JsonObject samples;
  for (const Rep& rep : untraced) {
    const std::pair<const char*, double> figures[] = {
        {"setup_s", rep.setup_s},
        {"run_s", rep.run_s},
        {"total_s", rep.total_s},
        {"sim_rate", ratio(rep.virtual_s, rep.run_s)}};
    for (const auto& [name, value] : figures) {
      if (!samples.count(name)) samples[name] = Json(JsonArray{});
      samples[name].as_array().push_back(Json(value));
    }
  }
  out["samples"] = Json(std::move(samples));
  if (options.trace) {
    out["phases"] = Json(std::move(phase_table));
    out["run_wall_ms"] = Json(run_wall_ms);
  }
  std::cout << Json(std::move(out)).dump() << std::endl;
  return problems.empty() ? 0 : 1;
}
