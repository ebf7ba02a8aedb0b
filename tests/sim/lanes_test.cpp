// Progress lanes and power sources (sim/tables.hpp): the properties the
// simulator's row events rely on beyond the per-tick invariants that
// SimRowCaps checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/tables.hpp"
#include "util/rng.hpp"
#include "workload/schedule.hpp"

namespace anor::sim {
namespace {

SimJobType one_node_type(const char* name, double p_max_w) {
  SimJobType type;
  type.name = name;
  type.nodes = 1;
  type.p_min_w = 100.0;
  type.p_max_w = p_max_w;
  type.time_at_pmax_s = 5.0;
  type.time_at_pmin_s = 8.0;
  return type;
}

TEST(SimLanes, ReleasedAndReassignedNodeKeepsItsOldPowerUntilTheNodeUpdate) {
  // One node, two uncapped one-node jobs drawing 200 W and 150 W, and a
  // control tick every step: the second job starts on the node in the
  // tick the first one finishes.  The node draws the first job's power
  // through the end of that tick and the second's from the next node
  // update on (the reference semantics the goldens pin).
  SimConfig config;
  config.node_count = 1;
  config.duration_s = 60.0;
  config.idle_power_w = 90.0;
  config.control_period_s = config.step_s;
  config.power_aware_admission = false;
  config.job_types = {one_node_type("hot", 200.0), one_node_type("warm", 150.0)};
  workload::Schedule schedule;
  schedule.duration_s = 10.0;
  for (int id : {0, 1}) {
    workload::JobRequest request;
    request.job_id = id;
    request.type_name = config.job_types[static_cast<std::size_t>(id)].name;
    schedule.jobs.push_back(request);
  }
  TabularSimulator sim(config, schedule, util::Rng(1));
  const NodeTable& nodes = sim.node_table();
  const JobTable& jobs = sim.job_table();
  const auto power_of = [&](int job_id) {
    return config.job_types[static_cast<std::size_t>(jobs.by_job_id(job_id).type_index)].p_max_w;
  };

  while (nodes.idle(0)) ASSERT_TRUE(sim.step());
  const int first = nodes.job_id(0);
  const int second = 1 - first;
  EXPECT_EQ(nodes.power_w(0), config.idle_power_w);  // until the next node update
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(nodes.power_w(0), power_of(first));

  while (!jobs.by_job_id(first).finished()) ASSERT_TRUE(sim.step());
  ASSERT_EQ(nodes.job_id(0), second) << "the second job must start in the finishing tick";
  EXPECT_EQ(jobs.by_job_id(second).start_s, jobs.by_job_id(first).end_s);
  EXPECT_EQ(nodes.power_w(0), power_of(first));
  EXPECT_EQ(nodes.total_power_w(), power_of(first));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(nodes.power_w(0), power_of(second));
  EXPECT_EQ(nodes.total_power_w(), power_of(second));
}

TEST(SimLanes, LowestIdleSelectionMatchesIdleNodesPrefix) {
  // Random start/finish sequences over node counts on and off a 64-node
  // word boundary: the bitmap selection must equal the prefix of the
  // node-order walk, and the walk must list exactly the idle nodes.
  util::Rng rng(20);
  for (int size : {1, 63, 64, 197, 256}) {
    NodeTable table(size);
    std::vector<std::vector<int>> running;
    std::size_t next_row = 0;
    for (int op = 0; op < 400; ++op) {
      if (table.idle_count() > 0 && (running.empty() || rng.coin(0.55))) {
        const int count = static_cast<int>(rng.uniform_int(1, std::min(table.idle_count(), 70)));
        std::vector<int> nodes;
        table.lowest_idle_nodes(count, nodes);
        table.start_row(next_row++, op, nodes);
        running.push_back(std::move(nodes));
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
        table.finish_row(running[pick]);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      }

      const std::vector<int> idle = table.idle_nodes();
      std::vector<int> walk;
      for (int n = 0; n < size; ++n) {
        if (table.idle(n)) walk.push_back(n);
      }
      ASSERT_EQ(idle, walk) << "size " << size << " op " << op;
      ASSERT_EQ(static_cast<int>(idle.size()), table.idle_count());
      for (int count : {0, 1, static_cast<int>(rng.uniform_int(0, table.idle_count())),
                        table.idle_count()}) {
        if (count > table.idle_count()) continue;
        std::vector<int> prefix;
        table.lowest_idle_nodes(count, prefix);
        ASSERT_EQ(prefix, std::vector<int>(idle.begin(), idle.begin() + count))
            << "size " << size << " op " << op << " count " << count;
      }
      std::vector<int> too_many;
      ASSERT_THROW(table.lowest_idle_nodes(table.idle_count() + 1, too_many), std::logic_error);
    }
  }

  // The scan starts at a hint, the lowest bitmap word that may hold an
  // idle bit.  Fill a 640-node table from the bottom, so the hint moves
  // forward a word at a time, then free rows in a high word and in a low
  // one, so it moves back, and refill: every selection must still be the
  // prefix of the node-order walk.
  NodeTable table(640);
  const auto expect_walk_prefix = [&](int count, const char* when) {
    std::vector<int> walk;
    for (int n = 0; n < table.size() && static_cast<int>(walk.size()) < count; ++n) {
      if (table.idle(n)) walk.push_back(n);
    }
    std::vector<int> got;
    table.lowest_idle_nodes(count, got);
    ASSERT_EQ(got, walk) << when << ", count " << count;
  };
  std::vector<std::vector<int>> rows;
  const auto start = [&](int count, const char* when) {
    expect_walk_prefix(count, when);
    std::vector<int> nodes;
    table.lowest_idle_nodes(count, nodes);
    table.start_row(rows.size(), static_cast<int>(rows.size()), nodes);
    rows.push_back(std::move(nodes));
  };
  while (table.idle_count() > 0) start(std::min(table.idle_count(), 37), "filling");
  expect_walk_prefix(0, "full");
  table.finish_row(rows[15]);  // nodes 555-591, words 8-9
  expect_walk_prefix(table.idle_count(), "a high row freed");
  start(3, "a high row freed");
  table.finish_row(rows[1]);  // nodes 37-73, words 0-1: the hint moves back
  expect_walk_prefix(table.idle_count(), "a low row freed");
  for (int k = 0; k < 40 && table.idle_count() > 0; ++k) start(1, "refilling one by one");
  expect_walk_prefix(table.idle_count(), "refilled");
  table.finish_row(rows[0]);  // nodes 0-36: word 0 again
  table.finish_row(rows.back());
  while (table.idle_count() > 0) {
    start(std::min(table.idle_count(), 5), "refilling after the lowest row");
  }
  expect_walk_prefix(0, "full again");
}

}  // namespace
}  // namespace anor::sim
