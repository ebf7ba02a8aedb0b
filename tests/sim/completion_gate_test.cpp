// The completion gate: the simulator keeps its running rows in a
// CompletionQueue keyed on each row's predicted completion time and tests
// only the rows that are due.  The queue is held to a brute-force model of
// itself, and whole runs are held, tick by tick, to a full scan of the
// running set with the test the completion phase applies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/tables.hpp"
#include "util/rng.hpp"

namespace anor::sim {
namespace {

TEST(SimCompletionGate, QueueMatchesABruteForceModel) {
  // Random inserts, re-keys (up and down, across the horizon, onto equal
  // keys and +infinity), erases and due walks at a time that mostly moves
  // forward, each followed by the queue's reads against a map.  Horizons
  // of 0, a few steps and more than the key range cover a horizon pass on
  // every walk, now and then, and never after the first.
  util::Rng rng(1103);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 30; ++trial) {
    const double horizon = trial % 3 == 0 ? 0.0 : trial % 3 == 1 ? 4.0 : 1000.0;
    CompletionQueue queue(horizon);
    std::map<std::size_t, double> model;
    const auto rows = rng.uniform_int(1, 200);
    double t = -2.0;
    for (int op = 0; op < 2000; ++op) {
      const auto row = static_cast<std::size_t>(rng.uniform_int(0, rows - 1));
      if (rng.coin(0.3)) {
        queue.erase(row);
        model.erase(row);
      } else {
        // Keys near the walk's time, few distinct ones so equal keys are
        // common.
        const double key = rng.coin(0.05) ? inf : t + static_cast<double>(rng.uniform_int(-3, 30));
        queue.set(row, key);
        model[row] = key;
      }
      const std::string where = "trial " + std::to_string(trial) + " op " + std::to_string(op);
      ASSERT_EQ(queue.size(), model.size()) << where;
      for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
        ASSERT_EQ(queue.contains(r), model.count(r) != 0) << where << " row " << r;
      }
      if (!rng.coin(0.5)) continue;
      t += static_cast<double>(rng.uniform_int(-1, 3));  // a step back too: no order is assumed
      std::vector<std::size_t> due;
      queue.for_each_due(t, [&](std::size_t r) { due.push_back(r); });
      std::sort(due.begin(), due.end());
      std::vector<std::size_t> want;
      for (const auto& [r, key] : model) {
        if (key <= t) want.push_back(r);
      }
      ASSERT_EQ(due, want) << where << " t " << t;
    }
  }
}

/// `node_scale` 1 keeps the native 1-2-node jobs; 0 scales every type to
/// nodes/40 nodes.
SimConfig gate_config(int node_scale, double sigma) {
  SimConfig config;
  config.node_count = 400;
  config.duration_s = 600.0;
  config.job_types = standard_sim_types(true, node_scale > 0 ? node_scale : 10);
  config.perf_variation_sigma = sigma;
  return config;
}

/// Steps a run to its end.  Before each tick it records every running
/// row's per-node progress (step() leaves it flushed) and cap (which the
/// tick's node update turns into the rate the completion test adds).
/// After the tick, the rows the completion phase finished must be exactly
/// those a full scan of the running set would have finished: the rows
/// whose prediction is due and each of whose lanes reaches progress 1 in
/// this tick.  The scan without the prediction must agree too, so the
/// gate drops no row that is done.
void check_gate_against_full_scan(const SimConfig& config, std::uint64_t seed, long& finished) {
  const workload::DemandResponseBid bid{400 * 150.0, 400 * 18.0};
  TabularSimulator sim = make_simulation(config, bid, 0.8, seed);
  const NodeTable& nodes = sim.node_table();
  const JobTable& jobs = sim.job_table();
  struct RowBefore {
    std::size_t row;
    double cap_w;
    std::vector<double> progress;  // per node of the row
  };
  std::vector<RowBefore> before;
  finished = 0;
  for (bool more = true; more;) {
    const double t = sim.now_s();
    before.clear();
    for (std::size_t i : jobs.running()) {
      RowBefore row{i, nodes.row_cap_w(i), {}};
      for (int n : jobs.row(i).nodes) row.progress.push_back(nodes.progress(n));
      before.push_back(std::move(row));
    }
    more = sim.step();

    std::vector<std::size_t> done_by_gate;
    std::vector<std::size_t> done_by_scan;
    std::vector<std::size_t> done_ungated;
    for (const RowBefore& b : before) {
      const JobRow& row = jobs.row(b.row);
      if (row.finished() && row.end_s == t) done_by_gate.push_back(b.row);
      const SimJobType& type = config.job_types[static_cast<std::size_t>(row.type_index)];
      const double row_rate = type.progress_rate(b.cap_w);
      bool done = true;
      for (std::size_t k = 0; k < row.nodes.size() && done; ++k) {
        const double d = row_rate * nodes.inv_perf_multiplier(row.nodes[k]) * config.step_s;
        double p = b.progress[k];
        if (d != 0.0) p += d;
        done = p >= 1.0;
      }
      if (!done) continue;
      done_ungated.push_back(b.row);
      if (!(row.earliest_done_s > t)) done_by_scan.push_back(b.row);
    }
    ASSERT_EQ(done_by_gate, done_by_scan) << "t=" << t;
    ASSERT_EQ(done_by_gate, done_ungated) << "t=" << t;
    finished += static_cast<long>(done_by_gate.size());
  }
  const auto rows_finished = std::count_if(jobs.rows().begin(), jobs.rows().end(),
                                           [](const JobRow& row) { return row.finished(); });
  ASSERT_EQ(finished, static_cast<long>(rows_finished));
}

void check_gate_matrix(int node_scale) {
  for (double sigma : {0.0, 0.05}) {
    for (std::uint64_t seed : {7u, 1103u}) {
      long finished = 0;
      check_gate_against_full_scan(gate_config(node_scale, sigma), seed, finished);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "sigma=" << sigma << " seed=" << seed;
        return;
      }
      EXPECT_GT(finished, node_scale > 0 ? 200 : 20) << "sigma=" << sigma << " seed=" << seed;
    }
  }
}

TEST(SimCompletionGate, JobDenseFinishesMatchAFullScan) { check_gate_matrix(1); }

TEST(SimCompletionGate, WideJobFinishesMatchAFullScan) { check_gate_matrix(0); }

}  // namespace
}  // namespace anor::sim
