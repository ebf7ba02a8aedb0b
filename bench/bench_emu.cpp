// Emulated-tier scaling bench: the paper's Fig. 9 run on the full job
// tier (RAPL MSRs, PlatformIO, agent trees, online modelers, endpoints,
// tier channels, the cluster manager) at 16, 64 and 256 nodes for 600 s
// of virtual time, serially, writing BENCH_emu.json (schema
// anor.bench_emu.v1, documented in README.md).
//
// The scenario is perfbench's emu-fig9 shape: NAS-long arrivals at 95 %
// utilization, BT labelled IS, the feedback ("adjusted") policy and
// demand-response targets of 150 W +- 18 W per node.  Per case it reports
// engine steps/sec as the median of at least 5 uninstrumented runs
// (repeated until they total 2 s of wall), each of which must reproduce
// the case's result hash (FNV-1a over the cache form of the run result,
// as perfbench's result_hash), and the span profiler's per-phase
// breakdown from one more, instrumented run, which must reproduce the
// hash too.  Any divergence exits nonzero.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/emulation.hpp"
#include "engine/runner.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep/result_cache.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "workload/job_type.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

using namespace anor;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kUtilization = 0.95;
constexpr double kDurationS = 600.0;
// A 256-node run takes 0.3-0.5 s, so a 0.5 s floor timed 3 runs, whose
// median swung by a third between invocations on a shared host.
constexpr std::size_t kMinTimedRuns = 5;
constexpr double kMinTimedWallS = 2.0;

engine::ScenarioSpec fig9_spec(int nodes) {
  engine::ScenarioSpec spec;
  spec.name = "bench-emu-fig9";
  spec.backend = engine::Backend::kEmulated;
  spec.policy = engine::PolicyRef("adjusted");
  spec.node_count = nodes;
  spec.seed = kSeed;
  workload::PoissonScheduleConfig config;
  config.duration_s = kDurationS;
  config.utilization = kUtilization;
  config.cluster_nodes = nodes;
  spec.schedule = workload::generate_poisson_schedule(workload::nas_long_job_types(), config,
                                                      util::Rng(kSeed).child("schedule"));
  workload::misclassify(spec.schedule, "bt.D.x", "is.D.x");
  workload::DemandResponseBid bid;
  bid.average_power_w = 150.0 * nodes;
  bid.reserve_w = 18.0 * nodes;
  const workload::RandomWalkRegulation regulation(util::Rng(kSeed).child("regulation"),
                                                  kDurationS + 60.0, 4.0);
  spec.targets = workload::make_power_target_series(bid, regulation, kDurationS, 4.0);
  spec.tracking_warmup_s = 120.0;
  spec.tracking_reserve_w = bid.reserve_w;
  return spec;
}

struct RunOutcome {
  long steps = 0;
  double wall_s = 0.0;  // the step loop; building the cluster is not timed
  int jobs_completed = 0;
  std::string result_hash;
};

RunOutcome run_case(const engine::ScenarioSpec& spec) {
  cluster::EmulatedCluster emu = engine::make_emulated_cluster(spec);
  RunOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  for (bool more = true; more;) {
    more = emu.step();
    ++out.steps;
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const engine::RunResult result = emu.run();  // drained: finalizes and hands over
  out.jobs_completed = result.jobs_completed;
  out.result_hash = util::hex16(engine::sweep::result_hash(result));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_emu.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }
  // The run's transport WARN lines are part of the workload, not output.
  util::Logger::instance().set_level(util::LogLevel::kError);

  const std::vector<int> sizes = quick ? std::vector<int>{16} : std::vector<int>{16, 64, 256};
  util::JsonArray cases;
  bool hashes_consistent = true;
  for (const int nodes : sizes) {
    const engine::ScenarioSpec spec = fig9_spec(nodes);
    RunOutcome timed = run_case(spec);
    std::vector<double> walls = {timed.wall_s};
    for (double total = timed.wall_s;
         walls.size() < kMinTimedRuns || total < kMinTimedWallS;) {
      const RunOutcome repeat = run_case(spec);
      if (repeat.result_hash != timed.result_hash) hashes_consistent = false;
      walls.push_back(repeat.wall_s);
      total += repeat.wall_s;
    }
    std::sort(walls.begin(), walls.end());
    const std::size_t mid = walls.size() / 2;
    timed.wall_s = walls.size() % 2 == 1 ? walls[mid] : 0.5 * (walls[mid - 1] + walls[mid]);

    // Instrumented re-run for the per-phase attribution: the engine's
    // components (hardware, job control, manager, ...) and the channel and
    // budget spans nested in them.  A small trace ring keeps it cheap;
    // phase statistics cover every span regardless.
    telemetry::prof::Profiler& profiler = telemetry::prof::Profiler::global();
    profiler.set_trace_capacity(4096);
    profiler.reset();
    profiler.set_enabled(true);
    const RunOutcome instrumented = run_case(spec);
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
    if (instrumented.result_hash != timed.result_hash) hashes_consistent = false;

    util::JsonObject entry;
    entry["nodes"] = util::Json(nodes);
    entry["duration_s"] = util::Json(kDurationS);
    entry["jobs_submitted"] = util::Json(static_cast<double>(spec.schedule.jobs.size()));
    entry["jobs_completed"] = util::Json(timed.jobs_completed);
    entry["steps"] = util::Json(static_cast<double>(timed.steps));
    entry["wall_s"] = util::Json(timed.wall_s);
    entry["timed_runs"] = util::Json(static_cast<double>(walls.size()));
    entry["steps_per_sec"] = util::Json(static_cast<double>(timed.steps) / timed.wall_s);
    entry["result_hash"] = util::Json(timed.result_hash);
    // Always computed, never served from a cache (compare_bench.py only
    // scores computed cases against each other).
    entry["cache"] = util::Json(std::string("off"));
    entry["profile"] = util::Json(std::move(prof_phases));
    cases.push_back(util::Json(std::move(entry)));

    std::printf("nodes=%-4d steps=%ld runs=%zu wall_s=%.3f (%.3f-%.3f) steps_per_sec=%.1f "
                "jobs=%d hash=%s\n",
                nodes, timed.steps, walls.size(), timed.wall_s, walls.front(), walls.back(),
                static_cast<double>(timed.steps) / timed.wall_s, timed.jobs_completed,
                timed.result_hash.c_str());
  }

  util::JsonObject root;
  root["schema"] = util::Json(std::string("anor.bench_emu.v1"));
  root["bench"] = util::Json(std::string("bench_emu"));
  const char* revision = std::getenv("ANOR_GIT_REVISION");
  root["git_revision"] = util::Json(std::string(revision ? revision : "unknown"));
  root["backend"] = util::Json(std::string("emulated"));
  root["policy"] = util::Json(std::string("adjusted"));
  root["misclassify"] = util::Json(std::string("bt.D.x=is.D.x"));
  root["seed"] = util::Json(static_cast<double>(kSeed));
  root["utilization"] = util::Json(kUtilization);
  root["quick"] = util::Json(quick);
  root["hardware_threads"] =
      util::Json(static_cast<double>(std::thread::hardware_concurrency()));
  root["all_hashes_consistent"] = util::Json(hashes_consistent);
  root["cases"] = util::Json(std::move(cases));

  std::ofstream out(out_path);
  out << util::Json(std::move(root)).dump(2) << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!hashes_consistent) {
    std::fprintf(stderr, "FAIL: repeated or instrumented runs diverged from the first run\n");
    return 1;
  }
  return 0;
}
