#include "engine/sweep/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/runner.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"

namespace anor::engine::sweep {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cheap size estimate (node-seconds) for LPT ordering, without paying
/// materialization: node count and duration are both readable straight
/// from the base/generate values plus the cell's assignment.
double cell_weight(const SweepGrid& grid, const SweepCell& cell) {
  double nodes = grid.base.node_count;
  double duration =
      grid.generate.enabled ? grid.generate.duration_s : grid.base.schedule.duration_s;
  for (const auto& [field, value] : cell.assignment) {
    if (field == "node_count" && value.is_number()) nodes = value.as_number();
    if (field == "duration_s" && value.is_number()) duration = value.as_number();
  }
  return nodes * std::max(duration, 1.0);
}

struct SweepMetrics {
  telemetry::Counter* cells_done = nullptr;
  telemetry::Counter* cells_computed = nullptr;
  telemetry::Counter* cache_hits = nullptr;

  SweepMetrics() {
    auto& registry = telemetry::MetricsRegistry::global();
    cells_done = &registry.counter("sweep.cells_done");
    cells_computed = &registry.counter("sweep.cells_computed");
    cache_hits = &registry.counter("sweep.cache_hits");
  }
};

}  // namespace

SweepReport run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  const auto sweep_start = Clock::now();
  const std::vector<SweepCell> cells = grid.expand();

  std::size_t run_workers = options.run_workers > 0
                                ? static_cast<std::size_t>(options.run_workers)
                                : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  run_workers = std::min(run_workers, std::max<std::size_t>(1, cells.size()));

  // LPT order: biggest cells claimed first so a large run cannot be the
  // last one dispatched.  Stable tie-break on grid order keeps the claim
  // sequence deterministic.
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cell_weight(grid, cells[a]) > cell_weight(grid, cells[b]);
  });

  SweepMaterializer materializer(grid);
  ResultCache cache(options.cache);
  SweepMetrics metrics;

  SweepReport report;
  report.grid_name = grid.name;
  report.cells.resize(cells.size());

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;

  const auto worker_body = [&]() {
    sim::WarmStart warm;
    for (;;) {
      const std::size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
      if (slot >= order.size()) return;
      const SweepCell& cell = cells[order[slot]];

      ANOR_PROF_SCOPE("sweep.cell");
      const auto cell_start = Clock::now();
      const ScenarioSpec spec = materializer.materialize(cell);

      SweepCellResult out;
      out.cell = cell;
      out.spec_name = spec.name;
      // Canonicalization serializes the whole materialized schedule —
      // milliseconds for large grids — so it runs once per cell, only
      // when a cache will use it.  Cache-off reports carry an empty key.
      CanonicalSpec canon;
      if (cache.config().enabled()) {
        canon = canonicalize_spec(spec);
        out.key = canon.key;
      }
      out.cache = cache.lookup(canon, &out.result);
      if (out.cache == CacheOutcome::kHit) {
        metrics.cache_hits->inc();
      } else {
        out.result = run_scenario_warm(spec, warm);
        cache.store(canon, out.result);
        metrics.cells_computed->inc();
      }
      out.wall_s = seconds_since(cell_start);
      metrics.cells_done->inc();

      report.cells[cell.index] = std::move(out);  // disjoint slots, no lock
      const std::size_t finished = done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (options.on_cell_done) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        options.on_cell_done(report.cells[cell.index], finished, cells.size());
      }
    }
  };

  if (run_workers <= 1) {
    worker_body();
  } else {
    std::vector<std::exception_ptr> errors(run_workers);
    std::vector<std::thread> threads;
    threads.reserve(run_workers);
    for (std::size_t w = 0; w < run_workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          worker_body();
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::exception_ptr& e : errors) {
      if (e != nullptr) std::rethrow_exception(e);
    }
  }

  report.cache_stats = cache.stats();
  report.wall_s = seconds_since(sweep_start);
  for (const SweepCellResult& cell : report.cells) {
    if (cell.cache == CacheOutcome::kHit) {
      ++report.cache_hits;
    } else {
      ++report.cells_computed;
    }
  }
  return report;
}

util::JsonText sweep_report_json(const SweepReport& report, int indent) {
  ANOR_PROF_SCOPE("export.sweep_report");
  util::JsonWriter out(indent);
  out.begin_object();
  out.key("cache_hits").value(report.cache_hits);
  const CacheStats& stats = report.cache_stats;
  out.key("cache_stats").begin_object();
  out.key("disk_hits").value(stats.disk_hits);
  out.key("hit_rate").value(stats.hit_rate());
  out.key("invalidated").value(stats.invalidated);
  out.key("lookups").value(stats.lookups);
  out.key("misses").value(stats.misses);
  out.key("stores").value(stats.stores);
  out.end_object();
  out.key("cells").begin_array();
  for (const SweepCellResult& cell : report.cells) {
    out.begin_object();
    out.key("cache").value(to_string(cell.cache));
    out.key("index").value(cell.cell.index);
    out.key("key").value(cell.key);
    out.key("name").value(cell.cell.name);
    out.key("result");
    write_run_result_json(out, cell.result);
    out.key("spec_name").value(cell.spec_name);
    out.key("wall_s").value(cell.wall_s);
    out.end_object();
  }
  out.end_array();
  out.key("cells_computed").value(report.cells_computed);
  out.key("cells_total").value(report.cells.size());
  out.key("grid").value(report.grid_name);
  out.key("schema").value("anor.sweep_result.v1");
  out.key("wall_s").value(report.wall_s);
  out.end_object();
  return out.finish();
}

util::JsonText sweep_results_deterministic_json(const SweepReport& report, int indent) {
  util::JsonWriter out(indent);
  out.begin_object();
  out.key("cells").begin_array();
  for (const SweepCellResult& cell : report.cells) {
    out.begin_object();
    out.key("index").value(cell.cell.index);
    out.key("key").value(cell.key);
    out.key("name").value(cell.cell.name);
    out.key("result");
    write_run_result_cache_json(out, cell.result);
    out.end_object();
  }
  out.end_array();
  out.key("epoch").value(kCacheEpoch);
  out.key("grid").value(report.grid_name);
  out.key("schema").value("anor.sweep_results.v1");
  out.end_object();
  return out.finish();
}

}  // namespace anor::engine::sweep
