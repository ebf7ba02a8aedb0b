// Cross-run sweep executor bench: warm-start reuse and the result cache
// against N sequential cold runs, writing BENCH_sweep.json (schema
// anor.bench_sweep.v1).
//
// Three timed passes over the SAME >= 32-cell grid:
//   cold_sequential — what the executor replaces: one fresh materializer
//                     and one cold run_scenario per cell, in grid order
//                     (every cell regenerates its schedule/targets and
//                     refits its models, as N separate invocations would).
//   warm_sweep      — run_sweep with the cache OFF: the speedup is pure
//                     warm-start reuse (pooled NodeTable and variation column,
//                     shared fitted models, memoized schedules/targets),
//                     never a served result.  Timed as the median of 5
//                     repeats (one repeat takes ~0.02 s, so a single
//                     noisy episode could sink the gate).  Gate: >= 3x
//                     vs cold.
//   cached_sweep    — a repeat of an identical sweep against a populated
//                     result cache, timed as the median of 5 repeats.
//                     Gate: >= 10x vs cold, 100% hits on every repeat.
//
// Every pass hashes every cell's full-fidelity result; any byte of
// divergence between passes fails the bench — speed that changes results
// is a bug, not a win.  Cases carry the "cache" provenance field
// ("hit" | "miss" | "off"); compare_bench.py refuses to score a cached
// wall time against a computed one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/runner.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/sweep.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace {

using namespace anor;
using engine::sweep::SweepCell;
using engine::sweep::SweepGrid;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}


/// The benched grid: 4 policies x 8 utilizations = 32 cells (quick: 2x2)
/// at a large node count, short horizon, and nonzero node variation —
/// the setup-dominated regime sweeps live in.  Cells share schedules
/// across the policy axis (8 unique workloads), power targets across all
/// 32 cells, and the NodeTable / fitted models / drawn variation column
/// across every cell a worker touches — exactly the per-run setup
/// (table construction, O(nodes) variation draws, model fits) that N
/// separate cold invocations repeat.
SweepGrid bench_grid(bool quick) {
  util::JsonObject base;
  base["backend"] = util::Json(std::string("tabular"));
  base["node_count"] = util::Json(quick ? 4096 : 65536);
  base["seed"] = util::Json(11);
  base["perf_variation_sigma"] = util::Json(0.05);

  util::JsonObject generate;
  generate["duration_s"] = util::Json(3.0);
  generate["signal"] = util::Json(std::string("dr"));

  util::JsonArray policies;
  policies.push_back(util::Json(std::string("uniform")));
  policies.push_back(util::Json(std::string("characterized")));
  if (!quick) {
    policies.push_back(util::Json(std::string("misclassified")));
    policies.push_back(util::Json(std::string("adjusted")));
  }
  util::JsonObject policy_axis;
  policy_axis["field"] = util::Json(std::string("policy"));
  policy_axis["values"] = util::Json(std::move(policies));

  util::JsonArray utils;
  const std::vector<double> values =
      quick ? std::vector<double>{0.08, 0.24}
            : std::vector<double>{0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28, 0.32};
  for (const double u : values) utils.push_back(util::Json(u));
  util::JsonObject util_axis;
  util_axis["field"] = util::Json(std::string("utilization"));
  util_axis["values"] = util::Json(std::move(utils));

  util::JsonArray axes;
  axes.push_back(util::Json(std::move(policy_axis)));
  axes.push_back(util::Json(std::move(util_axis)));

  util::JsonObject grid;
  grid["schema"] = util::Json(std::string("anor.sweep.v1"));
  grid["name"] = util::Json(std::string("bench-sweep"));
  grid["base"] = util::Json(std::move(base));
  grid["generate"] = util::Json(std::move(generate));
  grid["axes"] = util::Json(std::move(axes));
  return SweepGrid::from_json(util::Json(std::move(grid)));
}

struct PassResult {
  double wall_s = 0.0;
  std::vector<std::uint64_t> hashes;  // grid order
};

/// The replaced workflow: each cell materialized from scratch (fresh
/// materializer = no schedule/target memo) and run cold.
PassResult run_cold_sequential(const SweepGrid& grid) {
  const std::vector<SweepCell> cells = grid.expand();
  std::vector<engine::RunResult> results;
  results.reserve(cells.size());
  PassResult pass;
  const auto start = Clock::now();
  for (const SweepCell& cell : cells) {
    engine::sweep::SweepMaterializer materializer(grid);
    results.push_back(engine::run_scenario(materializer.materialize(cell)));
  }
  pass.wall_s = seconds_since(start);  // hashing is verification, not timed work
  for (const engine::RunResult& result : results) {
    pass.hashes.push_back(engine::sweep::result_hash(result));
  }
  return pass;
}

PassResult run_executor(const SweepGrid& grid, const engine::sweep::SweepOptions& options,
                        engine::sweep::CacheStats* stats = nullptr) {
  const auto start = Clock::now();
  const engine::sweep::SweepReport report = engine::sweep::run_sweep(grid, options);
  PassResult pass;
  pass.wall_s = seconds_since(start);
  for (const auto& cell : report.cells) {
    pass.hashes.push_back(engine::sweep::result_hash(cell.result));
  }
  if (stats != nullptr) *stats = report.cache_stats;
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sweep.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else {
      out_path = arg;
    }
  }

  const SweepGrid grid = bench_grid(quick);
  const std::size_t cell_count = grid.cell_count();
  std::printf("bench_sweep: %zu cells (%s), 3 passes\n", cell_count,
              quick ? "quick" : "full");

  const PassResult cold = run_cold_sequential(grid);
  std::printf("cold_sequential: %.3f s (%.1f ms/cell)\n", cold.wall_s,
              cold.wall_s * 1e3 / static_cast<double>(cell_count));

  bool hashes_consistent = true;
  const auto check_hashes = [&](const PassResult& pass, const char* name) {
    for (std::size_t i = 0; i < cell_count; ++i) {
      if (pass.hashes[i] != cold.hashes[i]) {
        std::fprintf(stderr, "FAIL: cell %zu results diverged (cold %s %s %s)\n", i,
                     util::hex16(cold.hashes[i]).c_str(), name,
                     util::hex16(pass.hashes[i]).c_str());
        hashes_consistent = false;
      }
    }
  };
  // The warm and cached passes each take ~0.02 s, so each is timed as the
  // median of kRepeats repeats, every one of which must reproduce every
  // cold cell hash.  `walls` receives the sorted repeat walls.
  constexpr std::size_t kRepeats = 5;
  const auto median_pass = [&](const char* name, const auto& run_once,
                               std::vector<double>& walls) {
    PassResult pass;
    walls.clear();
    for (std::size_t r = 0; r < kRepeats; ++r) {
      pass = run_once();
      walls.push_back(pass.wall_s);
      check_hashes(pass, name);
    }
    std::sort(walls.begin(), walls.end());
    pass.wall_s = walls[kRepeats / 2];
    return pass;
  };

  engine::sweep::SweepOptions warm_options;
  warm_options.cache = engine::sweep::CacheConfig::off();
  std::vector<double> warm_walls;
  const PassResult warm =
      median_pass("warm", [&] { return run_executor(grid, warm_options); }, warm_walls);
  const double warm_speedup = warm.wall_s > 0.0 ? cold.wall_s / warm.wall_s : 0.0;
  std::printf("warm_sweep:      %.3f s (%.2fx vs cold, cache off, median of %zu, "
              "%.3f-%.3f s)\n",
              warm.wall_s, warm_speedup, kRepeats, warm_walls.front(), warm_walls.back());

  // Prime the cache with one (untimed) sweep into a scratch dir, then time
  // the repeats — the "re-run the same sweep tomorrow" case.  The hit rate
  // is the lowest of the repeats.
  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::temp_directory_path() / "anor-bench-sweep-cache";
  fs::remove_all(cache_dir);
  engine::sweep::SweepOptions cached_options;
  cached_options.cache.dir = cache_dir.string();
  (void)run_executor(grid, cached_options);
  std::vector<double> cached_walls;
  double cached_hit_rate = 1.0;
  const PassResult cached = median_pass(
      "cached",
      [&] {
        engine::sweep::CacheStats stats;
        PassResult pass = run_executor(grid, cached_options, &stats);
        cached_hit_rate = std::min(cached_hit_rate, stats.hit_rate());
        return pass;
      },
      cached_walls);
  fs::remove_all(cache_dir);
  const double cached_speedup = cached.wall_s > 0.0 ? cold.wall_s / cached.wall_s : 0.0;
  std::printf("cached_sweep:    %.3f s (%.2fx vs cold, median of %zu, %.3f-%.3f s, "
              "lowest hit rate %.0f%%)\n",
              cached.wall_s, cached_speedup, kRepeats, cached_walls.front(),
              cached_walls.back(), cached_hit_rate * 100.0);

  std::uint64_t combined = util::kFnv1aRecordBasis;
  for (const std::uint64_t h : cold.hashes) {
    combined = util::fnv1a(util::hex16(h) + "/" + std::to_string(combined),
                           util::kFnv1aRecordBasis);
  }

  util::JsonArray cases;
  const auto add_case = [&](const char* name, const PassResult& pass, const char* cache,
                            double speedup, std::size_t repeats = 1) {
    util::JsonObject entry;
    entry["name"] = util::Json(std::string(name));
    entry["cells"] = util::Json(cell_count);
    entry["wall_s"] = util::Json(pass.wall_s);
    entry["ms_per_cell"] = util::Json(pass.wall_s * 1e3 / static_cast<double>(cell_count));
    // Wall-clock provenance: "hit" wall times measure the cache, not the
    // simulator; compare_bench.py skips any comparison involving one.
    entry["cache"] = util::Json(std::string(cache));
    if (speedup > 0.0) entry["speedup_vs_cold"] = util::Json(speedup);
    if (repeats > 1) entry["repeats"] = util::Json(repeats);  // wall_s is their median
    cases.push_back(util::Json(std::move(entry)));
  };
  add_case("cold_sequential", cold, "off", 0.0);
  add_case("warm_sweep", warm, "off", warm_speedup, kRepeats);
  add_case("cached_sweep", cached, "hit", cached_speedup, kRepeats);

  util::JsonObject root;
  root["schema"] = util::Json(std::string("anor.bench_sweep.v1"));
  root["bench"] = util::Json(std::string("bench_sweep"));
  const char* revision = std::getenv("ANOR_GIT_REVISION");
  root["git_revision"] = util::Json(std::string(revision ? revision : "unknown"));
  root["quick"] = util::Json(quick);
  root["grid"] = util::Json(grid.name);
  root["grid_cells"] = util::Json(cell_count);
  root["hardware_threads"] =
      util::Json(static_cast<double>(std::thread::hardware_concurrency()));
  root["results_hash"] = util::Json(util::hex16(combined));
  root["all_hashes_consistent"] = util::Json(hashes_consistent);
  root["warm_speedup_vs_cold"] = util::Json(warm_speedup);
  root["cached_speedup_vs_cold"] = util::Json(cached_speedup);
  root["cache_hit_rate"] = util::Json(cached_hit_rate);
  root["cases"] = util::Json(std::move(cases));

  std::ofstream out(out_path);
  out << util::Json(std::move(root)).dump(2) << "\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  int rc = 0;
  if (!hashes_consistent) {
    std::fprintf(stderr, "FAIL: warm/cached results diverged from cold runs\n");
    rc = 1;
  }
  // The perf gates only bind on the full grid: the quick pass exists to
  // smoke the harness, not to measure.
  if (!quick) {
    if (warm_speedup < 3.0) {
      std::fprintf(stderr, "FAIL: warm-start sweep %.2fx vs cold (need >= 3x)\n",
                   warm_speedup);
      rc = 1;
    }
    if (cached_speedup < 10.0) {
      std::fprintf(stderr, "FAIL: cached sweep %.2fx vs cold (need >= 10x)\n",
                   cached_speedup);
      rc = 1;
    }
    if (cached_hit_rate < 1.0) {
      std::fprintf(stderr, "FAIL: repeat sweep hit rate %.0f%% (expected 100%%)\n",
                   cached_hit_rate * 100.0);
      rc = 1;
    }
  }
  std::printf(rc == 0 ? "bench_sweep OK\n" : "bench_sweep FAILED\n");
  return rc;
}
