// Row-level events: the simulator writes caps per job row, keeps
// progress and rate per progress lane (the nodes of a row that share a
// performance multiplier) and queues the row, not each node, for the next
// rate/power refresh.  These tests step whole runs and check the
// invariants that make that equivalent to per-node tracking:
//   * every busy node's cap equals its row's cap after every tick;
//   * after every node update, every node's cached rate and power equal a
//     from-scratch evaluation at the cap that update applied;
//   * every node's progress equals a per-node reference that adds
//     rate(n) * step_s tick by tick, bit for bit;
//   * a row has one lane exactly when its nodes share a multiplier, and
//     lane slots are reused (never more lanes than nodes, nor, without
//     variation, than running rows);
//   * the power-run breaks match the per-node power sources, and the
//     total power equals a left-to-right sum of every node's power, bit
//     for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace anor::sim {
namespace {

/// `node_scale` 1 keeps the native 1-2-node jobs (job-dense); 0 scales
/// every type to nodes/40 nodes (a few wide jobs).
SimConfig row_cap_config(int nodes, int node_scale) {
  SimConfig config;
  config.node_count = nodes;
  config.duration_s = 240.0;
  config.job_types = standard_sim_types(true, node_scale > 0 ? node_scale : nodes / 40);
  return config;
}

/// Steps a run to the end, checking the invariants after every tick;
/// `checked` counts the busy node-ticks whose rate was compared.
void check_row_cap_invariants(const SimConfig& config, long& checked) {
  const workload::DemandResponseBid bid{config.node_count * 150.0, config.node_count * 18.0};
  TabularSimulator sim = make_simulation(config, bid, 0.8, 7);
  const NodeTable& nodes = sim.node_table();
  const JobTable& jobs = sim.job_table();

  // Owner row and cap of every node at the end of the previous tick: the
  // state the next tick's node update refreshes from.
  std::vector<int> prev_row(static_cast<std::size_t>(nodes.size()), -1);
  std::vector<double> prev_cap(static_cast<std::size_t>(nodes.size()), 0.0);
  // Per-node progress as a node-by-node sweep would accumulate it.
  std::vector<double> reference(static_cast<std::size_t>(nodes.size()), 0.0);
  checked = 0;
  std::size_t max_running = 0;
  while (sim.step()) {
    // Slots are reused: never more lanes than busy nodes ever were, and
    // without variation never more than running rows ever were.
    max_running = std::max(max_running, jobs.running().size());
    ASSERT_LE(nodes.lane_end(), config.perf_variation_sigma == 0.0
                                    ? static_cast<int>(max_running)
                                    : nodes.size())
        << "t=" << sim.now_s();
    for (int n = 0; n < nodes.size(); ++n) {
      const int row_index = nodes.job_row(n);
      const auto slot = static_cast<std::size_t>(n);
      if (row_index >= 0) {
        const auto row_slot = static_cast<std::size_t>(row_index);
        const JobRow& row = jobs.row(row_slot);
        ASSERT_EQ(nodes.cap_w(n), nodes.row_cap_w(row_slot))
            << "t=" << sim.now_s() << " node " << n << " job " << row.job_id;
        const bool shared = std::all_of(row.nodes.begin(), row.nodes.end(), [&](int m) {
          return nodes.perf_multiplier(m) == nodes.perf_multiplier(row.nodes.front());
        });
        ASSERT_EQ(row.lane >= 0, shared) << "t=" << sim.now_s() << " job " << row.job_id;
        if (shared) ASSERT_EQ(nodes.lane(n), row.lane) << "t=" << sim.now_s() << " node " << n;
      }
      // A node that kept its owner through this tick was refreshed (or
      // left alone because nothing changed) at the previous tick's cap.
      if (row_index == prev_row[slot] && row_index >= 0) {
        const JobRow& row = jobs.row(static_cast<std::size_t>(row_index));
        const SimJobType& type = config.job_types[static_cast<std::size_t>(row.type_index)];
        ASSERT_EQ(nodes.rate(n),
                  type.progress_rate(prev_cap[slot]) * nodes.inv_perf_multiplier(n))
            << "t=" << sim.now_s() << " node " << n;
        ASSERT_EQ(nodes.power_w(n), type.power_at(prev_cap[slot]))
            << "t=" << sim.now_s() << " node " << n;
        ++checked;
      } else if (row_index < 0 && prev_row[slot] < 0) {
        ASSERT_EQ(nodes.rate(n), 0.0) << "t=" << sim.now_s() << " node " << n;
        ASSERT_EQ(nodes.power_w(n), config.idle_power_w) << "t=" << sim.now_s() << " node " << n;
      }
      // This tick's substep used the rate its node update left, which
      // nothing later in the tick changes for a node that kept its owner;
      // a new owner (or none) starts from 0 at rate 0.
      if (row_index != prev_row[slot]) reference[slot] = 0.0;
      reference[slot] += nodes.rate(n) * config.step_s;
      ASSERT_EQ(nodes.progress(n), reference[slot]) << "t=" << sim.now_s() << " node " << n;
      prev_row[slot] = row_index;
      prev_cap[slot] = nodes.cap_w(n);
    }
    int runs = 0;
    double total = 0.0;
    for (int n = 0; n < nodes.size(); ++n) {
      const bool starts = n == 0 || nodes.power_source(n) != nodes.power_source(n - 1);
      ASSERT_EQ(nodes.starts_power_run(n), starts) << "t=" << sim.now_s() << " node " << n;
      runs += starts ? 1 : 0;
      total += nodes.power_w(n);
    }
    ASSERT_EQ(nodes.power_runs(), runs) << "t=" << sim.now_s();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(nodes.total_power_w()),
              std::bit_cast<std::uint64_t>(total))
        << "t=" << sim.now_s();
  }
}

TEST(SimRowCaps, JobDenseBusyNodesMatchTheirRow) {
  SimConfig config = row_cap_config(400, 1);
  config.perf_variation_sigma = 0.05;  // per-node rates differ within a row
  config.protect_at_risk_jobs = true;  // the at-risk cap path writes rows too
  long checked = 0;
  check_row_cap_invariants(config, checked);
  if (HasFatalFailure()) return;
  EXPECT_GT(checked, 10'000);
}

TEST(SimRowCaps, WideJobBusyNodesMatchTheirRow) {
  long checked = 0;
  check_row_cap_invariants(row_cap_config(400, 0), checked);
  if (HasFatalFailure()) return;
  EXPECT_GT(checked, 10'000);
}

}  // namespace
}  // namespace anor::sim
