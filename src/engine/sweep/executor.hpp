// Batch sweep executor (DESIGN.md 6i): grid in, per-cell RunResults out.
//
// Parallel across runs, serial within a run (DESIGN.md 6h): a small team
// of run workers, each owning a private sim::WarmStart pool (NodeTable,
// fitted models), claims cells from a longest-processing-time order (big
// cells first, by node_count × duration) via an atomic cursor — classic
// LPT so a huge cell cannot land last and serialize the tail.  Every run
// steps on its worker's thread.
//
// Each claimed cell goes: materialize spec → canonical key → cache
// lookup → (on miss) warm or cold run → cache store.  Cache hits return
// the stored RunResult bit-for-bit.  The report lists cells in grid
// order regardless of completion order, so two identical sweeps differ
// only in wall-clock/cache-outcome metadata — never in results.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/sweep.hpp"

namespace anor::engine::sweep {

struct SweepOptions {
  /// Run-level worker threads (cells in flight at once).  0 = hardware
  /// concurrency, 1 = in-caller execution (no extra threads).
  int run_workers = 1;
  /// Reuse NodeTable/fitted-model state across a worker's consecutive
  /// cells (bit-invisible; see sim::WarmStart).
  bool warm_start = true;
  CacheConfig cache;
  /// Called after each cell completes (serialized; may interleave with
  /// running cells).  `done` counts completed cells.
  std::function<void(const struct SweepCellResult& cell, std::size_t done,
                     std::size_t total)>
      on_cell_done;
};

struct SweepCellResult {
  SweepCell cell;
  std::string spec_name;
  std::string key;  // canonical spec key (cache file stem)
  CacheOutcome cache = CacheOutcome::kOff;
  double wall_s = 0.0;
  RunResult result;
};

struct SweepReport {
  std::string grid_name;
  std::vector<SweepCellResult> cells;  // grid order
  CacheStats cache_stats;
  double wall_s = 0.0;
  std::size_t cells_computed = 0;
  std::size_t cache_hits = 0;
};

SweepReport run_sweep(const SweepGrid& grid, const SweepOptions& options = {});

/// Full report document (`anor.sweep_result.v1`): per-cell decimated
/// run-result artifacts plus wall/cache metadata and cache statistics.
/// Both documents are streamed; indent as Json::dump.
util::JsonText sweep_report_json(const SweepReport& report, int indent = -1);

/// Deterministic projection (`anor.sweep_results.v1`): per-cell canonical
/// key + full-fidelity result, nothing wall-clock- or cache-dependent —
/// two runs of the same grid produce byte-identical documents (the CI
/// sweep smoke compares these with cmp).
util::JsonText sweep_results_deterministic_json(const SweepReport& report, int indent = -1);

}  // namespace anor::engine::sweep
