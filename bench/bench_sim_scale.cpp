// Simulator scaling bench: sweeps node counts over the seeded tracking
// scenario and writes BENCH_sim.json (schema
// documented in README.md).  Two job shapes: "wide" scales every NAS-long
// type to nodes/40 nodes (~700 jobs per hour at any size, the per-node
// layers carry the wall), "dense" keeps their native 1-2 nodes (the job
// count grows with the cluster, the per-job layers carry the wall).  For
// every case it reports steps/sec, jobs/sec and ns/node-tick as the median
// of at least 5 uninstrumented runs totalling at least 2 s of wall,
// the span profiler's per-phase breakdown from one more, instrumented run,
// and an FNV-1a hash over the power trace and QoS records.  Every repeat
// and the instrumented run must reproduce the case's hash, bit for bit,
// or the bench exits nonzero.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

using namespace anor;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kUtilization = 0.75;

/// Repeat a case's timed run at least this often and until the repeats
/// total this much wall (bench_emu's floor), and report their median: one
/// ~20 ms run swings more between identical runs than compare_bench.py's
/// regression threshold, and a multi-second case needs several runs to
/// have a median at all.
constexpr std::size_t kMinTimedRuns = 5;
constexpr double kMinTimedWallS = 2.0;

struct CaseSpec {
  int nodes = 1000;
  double duration_s = 3600.0;
  bool dense = false;  // native job sizes instead of nodes/40
};

struct RunOutcome {
  long steps = 0;
  double wall_s = 0.0;
  int jobs_completed = 0;
  std::uint64_t trace_hash = 0;
};

sim::SimConfig make_config(const CaseSpec& spec, bool telemetry) {
  sim::SimConfig config;
  config.node_count = spec.nodes;
  config.duration_s = spec.duration_s;
  config.job_types =
      sim::standard_sim_types(true, spec.dense ? 1 : std::max(1, spec.nodes / 40));
  config.telemetry_enabled = telemetry;
  return config;
}

RunOutcome run_case(const CaseSpec& spec, bool telemetry) {
  const workload::DemandResponseBid bid{spec.nodes * 150.0, spec.nodes * 18.0};
  sim::TabularSimulator simulator =
      sim::make_simulation(make_config(spec, telemetry), bid, kUtilization, kSeed);
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimResult r = simulator.run();
  RunOutcome out;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.steps = simulator.steps_taken();
  out.jobs_completed = r.jobs_completed;
  out.trace_hash = sim::trace_hash(r);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sim.json";
  const bool quick = argc > 2 && std::string(argv[2]) == "--quick";

  // Node-count sweep.  The 1M x 1h case is the scale target.  The dense
  // cases are the job-dense gate case of ROADMAP item 1 (100k nodes, 20
  // minutes of arrivals: ~590k jobs) and a tenth of it.
  std::vector<CaseSpec> specs;
  if (quick) {
    specs = {{1000, 600.0}, {1000, 600.0, true}};
  } else {
    specs = {{1000, 3600.0},          {10000, 900.0},          {100000, 3600.0},
             {1000000, 3600.0},       {10000, 1200.0, true},   {100000, 1200.0, true}};
  }

  util::JsonArray cases;
  std::uint64_t serial_hash_1k = 0;
  bool hashes_consistent = true;

  for (const CaseSpec& spec : specs) {
    // Timed, uninstrumented runs: the median wall of at least
    // kMinTimedRuns repeats totalling kMinTimedWallS, each of which must
    // compute the same trace.
    RunOutcome timed = run_case(spec, /*telemetry=*/false);
    std::vector<double> walls = {timed.wall_s};
    for (double total = timed.wall_s;
         walls.size() < kMinTimedRuns || total < kMinTimedWallS;) {
      const RunOutcome repeat = run_case(spec, /*telemetry=*/false);
      if (repeat.trace_hash != timed.trace_hash) hashes_consistent = false;
      walls.push_back(repeat.wall_s);
      total += repeat.wall_s;
    }
    std::sort(walls.begin(), walls.end());
    const std::size_t mid = walls.size() / 2;
    timed.wall_s = walls.size() % 2 == 1 ? walls[mid] : 0.5 * (walls[mid - 1] + walls[mid]);

    // Instrumented re-run (telemetry and the span profiler on) for the
    // per-phase wall attribution with quantiles, and a second determinism
    // witness (the hash check below also proves instrumentation never
    // touches sim state).  A small trace ring keeps the 100k-node cases
    // cheap; phase statistics cover every span regardless.
    telemetry::prof::Profiler& profiler = telemetry::prof::Profiler::global();
    profiler.set_trace_capacity(4096);
    profiler.reset();
    profiler.set_enabled(true);
    const RunOutcome instrumented = run_case(spec, /*telemetry=*/true);
    profiler.set_enabled(false);
    util::JsonObject prof_phases;
    for (const telemetry::prof::PhaseReport& pr : profiler.phase_report()) {
      util::JsonObject phase;
      phase["count"] = util::Json(static_cast<double>(pr.count));
      phase["us_per_step"] =
          util::Json(pr.total_ns / 1e3 / static_cast<double>(instrumented.steps));
      phase["p50_us"] = util::Json(pr.p50_ns / 1e3);
      phase["p95_us"] = util::Json(pr.p95_ns / 1e3);
      phase["p99_us"] = util::Json(pr.p99_ns / 1e3);
      prof_phases[pr.name] = util::Json(std::move(phase));
    }
    if (instrumented.trace_hash != timed.trace_hash) hashes_consistent = false;
    if (spec.nodes == 1000 && !spec.dense) serial_hash_1k = timed.trace_hash;

    util::JsonObject entry;
    entry["nodes"] = util::Json(spec.nodes);
    entry["duration_s"] = util::Json(spec.duration_s);
    entry["job_shape"] = util::Json(std::string(spec.dense ? "dense" : "wide"));
    entry["steps"] = util::Json(static_cast<double>(timed.steps));
    entry["wall_s"] = util::Json(timed.wall_s);
    entry["timed_runs"] = util::Json(static_cast<double>(walls.size()));
    entry["steps_per_sec"] = util::Json(timed.steps / timed.wall_s);
    entry["jobs_per_sec"] = util::Json(timed.jobs_completed / timed.wall_s);
    entry["ns_per_node_tick"] =
        util::Json(timed.wall_s * 1e9 / (static_cast<double>(timed.steps) * spec.nodes));
    entry["jobs_completed"] = util::Json(timed.jobs_completed);
    entry["trace_hash"] = util::Json(util::hex16(timed.trace_hash));
    // Provenance for the wall-clock numbers: this bench always computes
    // (never serves a cached RunResult), so its timings are comparable to
    // any other "off"/"miss" case — and never to a "hit" one
    // (compare_bench.py enforces this).
    entry["cache"] = util::Json(std::string("off"));
    entry["profile"] = util::Json(std::move(prof_phases));
    cases.push_back(util::Json(std::move(entry)));

    std::printf("nodes=%-7d %s steps=%ld runs=%zu wall_s=%.3f steps_per_sec=%.1f "
                "jobs_per_sec=%.0f ns_per_node_tick=%.2f hash=%s\n",
                spec.nodes, spec.dense ? "dense" : "wide ", timed.steps, walls.size(),
                timed.wall_s, timed.steps / timed.wall_s, timed.jobs_completed / timed.wall_s,
                timed.wall_s * 1e9 / (static_cast<double>(timed.steps) * spec.nodes),
                util::hex16(timed.trace_hash).c_str());
  }

  util::JsonObject root;
  root["schema"] = util::Json(std::string("anor.bench_sim.v1"));
  root["bench"] = util::Json(std::string("bench_sim_scale"));
  // Provenance: which code produced these numbers, and through which
  // backend.  run_bench.sh exports ANOR_GIT_REVISION from `git describe`.
  const char* revision = std::getenv("ANOR_GIT_REVISION");
  root["git_revision"] = util::Json(std::string(revision ? revision : "unknown"));
  root["backend"] = util::Json(std::string(anor::engine::to_string(
      anor::engine::Backend::kTabular)));
  root["seed"] = util::Json(static_cast<double>(kSeed));
  root["utilization"] = util::Json(kUtilization);
  root["tracking"] = util::Json(true);
  // Host context for the timings (every case runs on one thread).
  root["hardware_threads"] =
      util::Json(static_cast<double>(std::thread::hardware_concurrency()));
  root["serial_hash_1000_nodes"] = util::Json(util::hex16(serial_hash_1k));
  root["all_hashes_consistent"] = util::Json(hashes_consistent);
  root["cases"] = util::Json(std::move(cases));

  std::ofstream out(out_path);
  out << util::Json(std::move(root)).dump(2) << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!hashes_consistent) {
    std::fprintf(stderr, "FAIL: repeated/instrumented runs diverged from the case's trace\n");
    return 1;
  }
  return 0;
}
