#include "sim/tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace anor::sim {
namespace {

TEST(NodeTable, InitiallyAllIdle) {
  NodeTable table(10);
  EXPECT_EQ(table.size(), 10);
  EXPECT_EQ(table.idle_count(), 10);
  EXPECT_EQ(table.idle_nodes().size(), 10u);
  for (int n = 0; n < 10; ++n) {
    EXPECT_TRUE(table.idle(n));
    EXPECT_DOUBLE_EQ(table.perf_multiplier(n), 1.0);
  }
}

TEST(NodeTable, RejectsEmpty) {
  EXPECT_THROW(NodeTable(0), std::invalid_argument);
}

TEST(NodeTable, AssignReleaseLifecycle) {
  NodeTable table(4);
  const int lane = table.start_row(0, 17, {2});
  EXPECT_FALSE(table.idle(2));
  EXPECT_EQ(table.job_id(2), 17);
  EXPECT_EQ(table.job_row(2), 0);
  EXPECT_EQ(table.lane(2), lane);
  EXPECT_EQ(table.idle_count(), 3);
  table.set_lane_rate(lane, 0.2);
  table.advance_progress_batch(0, table.lane_end(), 1.0, 2);
  EXPECT_DOUBLE_EQ(table.progress(2), 0.2 + 0.2);
  table.finish_row({2});
  EXPECT_TRUE(table.idle(2));
  EXPECT_EQ(table.idle_count(), 4);
  EXPECT_EQ(table.lane(2), -1);
  EXPECT_DOUBLE_EQ(table.progress(2), 0.0);
  EXPECT_DOUBLE_EQ(table.cap_w(2), 0.0);
}

TEST(NodeTable, AssignResetsProgress) {
  // A finished row's lane slot is reused by the next start, at progress 0.
  NodeTable table(2);
  const int first = table.start_row(0, 1, {0});
  table.set_lane_rate(first, 0.9);
  table.advance_progress_batch(0, table.lane_end(), 1.0, 1);
  table.finish_row({0});
  const int second = table.start_row(1, 2, {0});
  EXPECT_EQ(second, first);
  EXPECT_EQ(table.lane_end(), 1);
  EXPECT_DOUBLE_EQ(table.progress(0), 0.0);
  EXPECT_DOUBLE_EQ(table.rate(0), 0.0);
}

TEST(NodeTable, TotalPowerSums) {
  // Each node draws its power source's power: idle, or its row's.
  NodeTable table(3);
  table.set_idle_power_w(50.0);
  table.start_row(0, 7, {0});
  table.start_row(1, 8, {1});
  table.draw_row_power(0, {0});
  table.draw_row_power(1, {1});
  table.set_row_power(0, 100.0);
  table.set_row_power(1, 150.0);
  EXPECT_DOUBLE_EQ(table.power_w(0), 100.0);
  EXPECT_DOUBLE_EQ(table.power_w(2), 50.0);
  EXPECT_DOUBLE_EQ(table.total_power_w(), 300.0);
}

TEST(NodeTable, SetCapIsAPlainWrite) {
  // Cap changes are per job row and queued by the simulator: set_row_cap
  // writes the row's cap, which every node of the row reads, and leaves
  // rate and power to the refresh.
  NodeTable table(4);
  table.set_idle_power_w(90.0);
  const int lane = table.start_row(0, 7, {1, 2});
  EXPECT_DOUBLE_EQ(table.cap_w(1), 0.0);  // a row's cap starts at 0
  table.set_row_cap(0, 100.0);
  table.set_row_cap(0, 120.0);
  EXPECT_DOUBLE_EQ(table.row_cap_w(0), 120.0);
  EXPECT_DOUBLE_EQ(table.cap_w(1), 120.0);
  EXPECT_DOUBLE_EQ(table.cap_w(2), 120.0);
  EXPECT_DOUBLE_EQ(table.cap_w(3), 0.0);
  EXPECT_DOUBLE_EQ(table.lane_rate(lane), 0.0);
  EXPECT_DOUBLE_EQ(table.power_w(1), 90.0);
  EXPECT_DOUBLE_EQ(table.total_power_w(), 4 * 90.0);
}

TEST(NodeTable, AssignAndReleaseQueuePendingRefresh) {
  // Start and finish change ownership at once; the power a node draws
  // waits for the refresh, which moves its power source.
  NodeTable table(3);
  table.set_idle_power_w(90.0);
  const int lane = table.start_row(4, 7, {0});
  EXPECT_EQ(table.job_row(0), 4);
  EXPECT_EQ(table.lane_row(lane), 4);
  EXPECT_EQ(table.power_source(0), -1);  // still idle power until the refresh
  table.draw_row_power(4, {0});
  table.set_row_power(4, 200.0);
  table.set_lane_rate(lane, 0.5);
  EXPECT_EQ(table.power_source(0), 4);
  table.finish_row({0});
  EXPECT_EQ(table.job_row(0), -1);
  EXPECT_DOUBLE_EQ(table.rate(0), 0.0);  // idle nodes advance at rate 0
  EXPECT_DOUBLE_EQ(table.cap_w(0), 0.0);
  EXPECT_DOUBLE_EQ(table.lane_rate(lane), 0.0);  // the free slot adds nothing
  EXPECT_DOUBLE_EQ(table.power_w(0), 200.0);     // the row's power, until...
  table.draw_idle_power({0});
  EXPECT_DOUBLE_EQ(table.power_w(0), 90.0);
}

TEST(NodeTable, AdvanceProgressUsesCachedRatesOverRanges) {
  NodeTable table(4);
  const int a = table.start_row(0, 10, {1});
  const int b = table.start_row(1, 11, {3});
  table.set_lane_rate(a, 0.25);
  table.set_lane_rate(b, 0.5);
  table.advance_progress_batch(0, 1, 2.0, 1);  // first range: lane 0
  table.advance_progress_batch(1, 2, 2.0, 1);  // second range: lane 1
  EXPECT_DOUBLE_EQ(table.progress(0), 0.0);
  EXPECT_DOUBLE_EQ(table.progress(1), 0.5);
  EXPECT_DOUBLE_EQ(table.progress(2), 0.0);
  EXPECT_DOUBLE_EQ(table.progress(3), 1.0);
}

TEST(NodeTable, TotalPowerCacheInvalidatedByWrites) {
  NodeTable table(3);
  table.set_idle_power_w(50.0);
  table.start_row(0, 1, {0, 1});
  table.draw_row_power(0, {0, 1});
  table.set_row_power(0, 100.0);
  EXPECT_DOUBLE_EQ(table.total_power_w(), 250.0);
  EXPECT_DOUBLE_EQ(table.total_power_w(), 250.0);  // cached re-read
  table.set_row_power(0, 110.0);
  EXPECT_DOUBLE_EQ(table.total_power_w(), 270.0);
  table.set_idle_power_w(60.0);
  EXPECT_DOUBLE_EQ(table.total_power_w(), 280.0);
  table.finish_row({0, 1});
  table.draw_idle_power({0, 1});
  EXPECT_DOUBLE_EQ(table.total_power_w(), 180.0);
}

TEST(NodeTable, RowsShareALaneOnlyWhenTheirMultipliersMatch) {
  NodeTable table(6);
  table.set_perf_multiplier(3, 1.1);
  const int shared = table.start_row(0, 1, {0, 1, 2});
  EXPECT_GE(shared, 0);
  for (int n : {0, 1, 2}) EXPECT_EQ(table.lane(n), shared);
  EXPECT_EQ(table.start_row(1, 2, {3, 4}), -1);  // 1.1 and 1.0: one lane each
  EXPECT_NE(table.lane(3), table.lane(4));
  EXPECT_EQ(table.lane_end(), 3);
  EXPECT_EQ(table.lane_inv_multiplier(table.lane(3)), 1.0 / 1.1);
  table.finish_row({0, 1, 2});
  table.finish_row({3, 4});
  EXPECT_EQ(table.idle_count(), 6);
  table.start_row(2, 3, {0, 1, 2, 3, 4, 5});  // one per node again, from free slots
  EXPECT_EQ(table.lane_end(), 6);
}

/// The run breaks, the run count and the total power against a rebuild
/// from the per-node power sources and powers.
void expect_runs_match_rebuild(const NodeTable& table, const std::string& where) {
  int runs = 0;
  double total = 0.0;
  for (int n = 0; n < table.size(); ++n) {
    const bool starts = n == 0 || table.power_source(n) != table.power_source(n - 1);
    ASSERT_EQ(table.starts_power_run(n), starts) << where << ", node " << n;
    runs += starts ? 1 : 0;
    total += table.power_w(n);
  }
  ASSERT_EQ(table.power_runs(), runs) << where;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(table.total_power_w()),
            std::bit_cast<std::uint64_t>(total))
      << where << ": " << table.total_power_w() << " vs " << total;
}

TEST(NodeTable, PowerRunsMatchARebuild) {
  util::Rng rng(20261018);
  for (int size : {1, 63, 64, 65, 197, 256}) {
    NodeTable table(size);
    struct Row {
      std::vector<int> nodes;
      bool finished = false;
    };
    std::vector<Row> rows;
    // Row and idle powers with full significands, so summing a run is
    // more than integer arithmetic.
    auto power = [&] { return rng.uniform(50.0, 400.0); };
    auto any_row = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
    };
    long few_runs = 0;  // checks where the runs average 64+ nodes
    for (int op = 0; op < 3000; ++op) {
      std::string what;
      const auto pick = [&](auto want) -> Row* {
        std::vector<Row*> match;
        for (Row& row : rows) {
          if (want(row)) match.push_back(&row);
        }
        return match.empty() ? nullptr
                             : match[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(match.size()) - 1))];
      };
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1: {  // start: the lowest idle nodes, or scattered ones
          if (table.idle_count() == 0) break;
          const int count = static_cast<int>(
              rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1, std::min(3, table.idle_count()))
                                         : rng.uniform_int(1, table.idle_count()));
          std::vector<int> nodes;
          if (rng.uniform_int(0, 1) == 0) {
            table.lowest_idle_nodes(count, nodes);
          } else {
            std::vector<int> idle = table.idle_nodes();
            for (int i = 0; i < count; ++i) {
              const auto j = static_cast<std::size_t>(
                  rng.uniform_int(i, static_cast<std::int64_t>(idle.size()) - 1));
              std::swap(idle[static_cast<std::size_t>(i)], idle[j]);
            }
            nodes.assign(idle.begin(), idle.begin() + count);
            std::sort(nodes.begin(), nodes.end());
          }
          table.start_row(rows.size(), static_cast<int>(rows.size()), nodes);
          table.set_row_power(rows.size(), power());
          rows.push_back({std::move(nodes)});
          what = "start";
          break;
        }
        case 2:
        case 3: {  // the refresh moves a started row's nodes to its power
          if (rows.empty()) break;
          const std::size_t row = any_row();
          table.draw_row_power(row, rows[row].nodes);
          what = "draw row";
          break;
        }
        case 4:
        case 5: {  // finish a running row
          Row* row = pick([](const Row& r) { return !r.finished; });
          if (row == nullptr) break;
          table.finish_row(row->nodes);
          row->finished = true;
          what = "finish";
          break;
        }
        case 6:
        case 7: {  // the refresh moves a finished row's still-idle nodes to idle
          Row* row = pick([](const Row& r) { return r.finished; });
          if (row == nullptr) break;
          table.draw_idle_power(row->nodes);
          what = "draw idle";
          break;
        }
        case 8: {  // power changes without source moves
          if (!rows.empty() && rng.uniform_int(0, 1) == 0) {
            table.set_row_power(any_row(), power());
          } else {
            table.set_idle_power_w(power());
          }
          what = "set power";
          break;
        }
        default: {
          if (rng.uniform_int(0, 20) != 0) break;
          table.reset(size);
          rows.clear();
          what = "reset";
          break;
        }
      }
      if (what.empty()) continue;
      expect_runs_match_rebuild(table, std::to_string(size) + " nodes, op " +
                                           std::to_string(op) + " (" + what + ")");
      if (HasFatalFailure()) return;
      if (table.power_runs() * 64 <= table.size()) ++few_runs;
    }
    if (size >= 128) EXPECT_GT(few_runs, 0) << size << " nodes";
  }
}

/// The per-node semantics that NodeTable's block-wise start and finish
/// must reproduce, one node at a time: ownership, lanes (opened in node
/// order, a shared one when every multiplier matches the first, reused
/// from a LIFO free list, a shared one freed with the row's first node)
/// and idleness.
struct PerNodeTable {
  explicit PerNodeTable(int size)
      : job_id(static_cast<std::size_t>(size), -1),
        lane(static_cast<std::size_t>(size), -1),
        mult(static_cast<std::size_t>(size), 1.0) {}

  int open_lane(int row) {
    int l = static_cast<int>(lane_row.size());
    if (free_lanes.empty()) {
      lane_row.push_back(row);
    } else {
      l = free_lanes.back();
      free_lanes.pop_back();
      lane_row[static_cast<std::size_t>(l)] = row;
    }
    return l;
  }
  /// The lane the next open reuses (or appends).
  int next_lane() const {
    return free_lanes.empty() ? static_cast<int>(lane_row.size()) : free_lanes.back();
  }
  int start(int row, int job, const std::vector<int>& nodes) {
    if (nodes.empty()) return -1;
    const double first = mult[static_cast<std::size_t>(nodes.front())];
    bool shared = true;
    for (int n : nodes) shared = shared && mult[static_cast<std::size_t>(n)] == first;
    const int shared_lane = shared ? open_lane(row) : -1;
    for (int n : nodes) {
      job_id[static_cast<std::size_t>(n)] = job;
      lane[static_cast<std::size_t>(n)] = shared ? shared_lane : open_lane(row);
    }
    return shared_lane;
  }
  void finish(const std::vector<int>& nodes) {
    for (int n : nodes) {
      const int l = lane[static_cast<std::size_t>(n)];
      if (lane_row[static_cast<std::size_t>(l)] >= 0) {
        lane_row[static_cast<std::size_t>(l)] = -1;
        free_lanes.push_back(l);
      }
      job_id[static_cast<std::size_t>(n)] = -1;
      lane[static_cast<std::size_t>(n)] = -1;
    }
  }
  std::vector<int> lowest_idle(int count) const {
    std::vector<int> out;
    for (std::size_t n = 0; n < job_id.size() && static_cast<int>(out.size()) < count; ++n) {
      if (job_id[n] < 0) out.push_back(static_cast<int>(n));
    }
    return out;
  }
  int idle_count() const {
    return static_cast<int>(std::count(job_id.begin(), job_id.end(), -1));
  }

  std::vector<int> job_id;
  std::vector<int> lane;
  std::vector<double> mult;
  std::vector<int> lane_row;  // -1 for a free lane
  std::vector<int> free_lanes;
};

void expect_matches_per_node(const NodeTable& table, const PerNodeTable& want,
                             const std::string& where) {
  ASSERT_EQ(table.idle_count(), want.idle_count()) << where;
  ASSERT_EQ(table.lane_end(), static_cast<int>(want.lane_row.size())) << where;
  for (int n = 0; n < table.size(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    ASSERT_EQ(table.job_id(n), want.job_id[i]) << where << ", node " << n;
    ASSERT_EQ(table.lane(n), want.lane[i]) << where << ", node " << n;
    ASSERT_EQ(table.idle(n), want.job_id[i] < 0) << where << ", node " << n;
  }
  for (int l = 0; l < table.lane_end(); ++l) {
    ASSERT_EQ(table.lane_row(l), want.lane_row[static_cast<std::size_t>(l)])
        << where << ", lane " << l;
  }
  // The lane the next start takes: start a one-node row on a copy.
  if (table.idle_count() > 0) {
    NodeTable probe = table;
    std::vector<int> node;
    probe.lowest_idle_nodes(1, node);
    ASSERT_EQ(probe.start_row(0, 0, node), want.next_lane()) << where << ": next lane";
  }
}

TEST(NodeTable, BlockEventsMatchAPerNodeReference) {
  // Random start / finish / lowest-idle sequences, with the lowest idle
  // nodes (long blocks, whole idle words) or scattered ascending ones
  // (short blocks), on tables on and off the 64-node word boundary, with
  // every multiplier 1.0 and with varied ones (per-node lanes, and a
  // multiplier reset to 1.0 so none varies again).  After every call the
  // block-wise table must equal the per-node reference.
  util::Rng rng(20261020);
  for (const bool varied : {false, true}) {
    for (int size : {1, 63, 64, 65, 128, 129, 300}) {
      NodeTable table(size);
      PerNodeTable want(size);
      std::vector<std::vector<int>> running;
      int next_row = 0;
      long whole_words = 0;    // lowest-idle lists that took an all-idle word
      long per_node_rows = 0;  // multi-node starts with a lane per node
      long shared_rows = 0;    // multi-node starts with one shared lane
      const auto set_multiplier = [&](int n, double m) {
        table.set_perf_multiplier(n, m);
        want.mult[static_cast<std::size_t>(n)] = m;
      };
      for (int op = 0; op < 1500; ++op) {
        std::string what;
        const int choice = static_cast<int>(rng.uniform_int(0, 9));
        if (choice <= 3 && table.idle_count() > 0) {  // start
          const int idle = table.idle_count();
          const int count = static_cast<int>(rng.coin(0.5) ? rng.uniform_int(1, std::min(3, idle))
                                                            : rng.uniform_int(1, idle));
          std::vector<int> nodes;
          if (rng.coin(0.5)) {
            table.lowest_idle_nodes(count, nodes);
            what = "start, lowest idle";
          } else {
            std::vector<int> pool = table.idle_nodes();
            for (int i = 0; i < count; ++i) {
              const auto j = static_cast<std::size_t>(
                  rng.uniform_int(i, static_cast<std::int64_t>(pool.size()) - 1));
              std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
            }
            nodes.assign(pool.begin(), pool.begin() + count);
            std::sort(nodes.begin(), nodes.end());
            what = "start, scattered";
          }
          const int lane = table.start_row(static_cast<std::size_t>(next_row), next_row, nodes);
          ASSERT_EQ(lane, want.start(next_row, next_row, nodes)) << what << ", op " << op;
          if (nodes.size() > 1) ++(lane < 0 ? per_node_rows : shared_rows);
          ++next_row;
          running.push_back(std::move(nodes));
        } else if (choice <= 6 && !running.empty()) {  // finish
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
          table.finish_row(running[pick]);
          want.finish(running[pick]);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
          what = "finish";
        } else if (choice <= 8) {  // lowest idle, appended after a prefix
          const int count = static_cast<int>(rng.uniform_int(0, table.idle_count()));
          std::vector<int> got = {-7};
          table.lowest_idle_nodes(count, got);
          std::vector<int> expected = want.lowest_idle(count);
          expected.insert(expected.begin(), -7);
          ASSERT_EQ(got, expected) << "lowest idle " << count << ", op " << op;
          for (std::size_t i = 1; i + 63 < got.size(); ++i) {
            if (got[i] % 64 == 0 && got[i + 63] == got[i] + 63) {
              ++whole_words;
              break;
            }
          }
          what = "lowest idle";
        } else if (varied) {  // a multiplier changes; later starts see it
          const int n = static_cast<int>(rng.uniform_int(0, size - 1));
          const double values[] = {1.0, 1.0, 0.9, 1.1};
          set_multiplier(n, values[rng.uniform_int(0, 3)]);
          if (rng.coin(0.1)) {  // every multiplier back to 1.0
            for (int m = 0; m < size; ++m) set_multiplier(m, 1.0);
          }
          what = "multiplier";
        } else if (rng.coin(0.05)) {
          table.reset(size);
          want = PerNodeTable(size);
          running.clear();
          next_row = 0;
          what = "reset";
        }
        if (what.empty()) continue;
        expect_matches_per_node(table, want,
                                (varied ? "varied, " : "uniform, ") + std::to_string(size) +
                                    " nodes, op " + std::to_string(op) + " (" + what + ")");
        if (HasFatalFailure()) return;
      }
      if (size >= 128) {
        EXPECT_GT(whole_words, 0) << size << " nodes";
      }
      if (size >= 63) {
        EXPECT_GT(shared_rows, 0) << size << " nodes";
      }
      if (size >= 63 && varied) {
        EXPECT_GT(per_node_rows, 0) << size << " nodes";
      }
    }
  }
}

TEST(JobTable, AddAndLookupById) {
  JobTable table;
  JobRow row;
  row.job_id = 42;
  row.type_index = 1;
  row.submit_s = 3.0;
  table.add(row);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.by_job_id(42).type_index, 1);
  EXPECT_THROW(table.by_job_id(99), std::out_of_range);
}

TEST(JobTable, LifecyclePredicates) {
  JobRow row;
  EXPECT_FALSE(row.started());
  EXPECT_FALSE(row.finished());
  row.start_s = 5.0;
  EXPECT_TRUE(row.started());
  EXPECT_FALSE(row.finished());
  row.end_s = 10.0;
  EXPECT_TRUE(row.finished());
}

TEST(JobTable, RunningFiltersCorrectly) {
  JobTable table;
  JobRow queued;
  queued.job_id = 0;
  table.add(queued);
  JobRow running;
  running.job_id = 1;
  running.start_s = 1.0;
  table.add(running);
  JobRow done;
  done.job_id = 2;
  done.start_s = 1.0;
  done.end_s = 2.0;
  table.add(done);
  const auto active = table.running();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(table.row(active[0]).job_id, 1);
}

TEST(JobTable, IndexOfMatchesRowOrder) {
  JobTable table;
  for (int id : {5, 3, 9}) {
    JobRow row;
    row.job_id = id;
    table.add(row);
  }
  EXPECT_EQ(table.index_of(5), 0u);
  EXPECT_EQ(table.index_of(3), 1u);
  EXPECT_EQ(table.index_of(9), 2u);
  EXPECT_THROW(table.index_of(4), std::out_of_range);
}

TEST(JobTable, RunningSetMaintainedIncrementally) {
  JobTable table;
  for (int id = 0; id < 4; ++id) {
    JobRow row;
    row.job_id = id;
    table.add(row);
  }
  // Start out of row order: the running set stays ascending.
  table.mark_started(2, 1.0);
  table.mark_started(0, 2.0);
  table.mark_started(3, 3.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{0, 2, 3}));
  table.mark_finished({2}, 4.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{0, 3}));
  // Idempotent transitions do not corrupt the set.
  table.mark_started(0, 5.0);
  table.mark_finished({2}, 6.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{0, 3}));
  EXPECT_DOUBLE_EQ(table.row(0).start_s, 2.0);
  EXPECT_DOUBLE_EQ(table.row(2).end_s, 4.0);
}

TEST(JobTable, RunningSetExactAcrossBatchedFinishes) {
  // The simulator's floating-point sums iterate running() in order, so
  // after every transition the set must equal the ascending list of rows
  // that are started and not finished -- checked here against a rebuild
  // from the rows themselves.
  JobTable table;
  for (int id = 0; id < 8; ++id) {
    JobRow row;
    row.job_id = id;
    table.add(row);
  }
  const auto rebuilt = [&table] {
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (table.row(i).started() && !table.row(i).finished()) expected.push_back(i);
    }
    return expected;
  };
  for (std::size_t i : {5u, 0u, 7u, 2u, 3u}) table.mark_started(i, 1.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{0, 2, 3, 5, 7}));

  table.mark_finished({7, 0}, 2.0);  // last and first row in one batch, unsorted
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{2, 3, 5}));
  EXPECT_EQ(table.running(), rebuilt());

  table.mark_started(6, 3.0);  // starts between compactions stay in order
  table.mark_started(1, 3.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{1, 2, 3, 5, 6}));

  // A repeated finish is a no-op: neither the end time nor the set moves.
  table.mark_finished({0, 7}, 4.0);
  EXPECT_DOUBLE_EQ(table.row(0).end_s, 2.0);
  EXPECT_DOUBLE_EQ(table.row(7).end_s, 2.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{1, 2, 3, 5, 6}));

  table.mark_finished({3}, 5.0);  // a row from the middle
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{1, 2, 5, 6}));
  EXPECT_EQ(table.running(), rebuilt());

  table.mark_finished({1, 2, 5, 6}, 6.0);  // every running row at once
  EXPECT_TRUE(table.running().empty());
  EXPECT_EQ(table.running(), rebuilt());

  table.mark_finished({}, 7.0);  // an empty batch changes nothing
  table.mark_started(4, 7.0);
  EXPECT_EQ(table.running(), (std::vector<std::size_t>{4}));
  EXPECT_EQ(table.running(), rebuilt());
}

TEST(JobTable, RunningSetMatchesARebuildUnderRandomBatches) {
  // Starts append to an unsorted tail and finishes only mark their rows;
  // a read merges both.  Random interleavings of starts, batched finishes
  // (unsorted, with repeats and rows that never started) and reads --
  // including rows that start and finish between two reads -- must leave
  // running() equal to the ascending rebuild from the rows at every read,
  // and running_count() equal to its size after every operation.
  util::Rng rng(20261019);
  long finished_unread = 0;  // rows that finished before any read since their start
  for (int trial = 0; trial < 40; ++trial) {
    JobTable table;
    const int rows = static_cast<int>(rng.uniform_int(1, 300));
    for (int id = 0; id < rows; ++id) {
      JobRow row;
      row.job_id = id;
      if (rng.coin(0.05)) row.start_s = 0.0;  // added already running
      table.add(row);
    }
    const auto rebuilt = [&table] {
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (table.row(i).started() && !table.row(i).finished()) expected.push_back(i);
      }
      return expected;
    };
    const auto any_row = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, rows - 1));
    };
    double t = 1.0;
    std::vector<std::size_t> started_since_read;
    for (int op = 0; op < 400; ++op, t += 1.0) {
      const std::string where = "trial " + std::to_string(trial) + " op " + std::to_string(op);
      switch (rng.uniform_int(0, 5)) {
        case 0:
        case 1: {  // a burst of starts, in random row order
          const int count = static_cast<int>(rng.uniform_int(1, 8));
          for (int k = 0; k < count; ++k) {
            const std::size_t i = any_row();
            if (!table.row(i).started()) started_since_read.push_back(i);
            table.mark_started(i, t);
          }
          break;
        }
        case 2:
        case 3: {  // a tick's batch of finishes
          std::vector<std::size_t> batch;
          const int count = static_cast<int>(rng.uniform_int(0, 6));
          for (int k = 0; k < count; ++k) batch.push_back(any_row());
          if (!started_since_read.empty() && rng.coin(0.5)) {
            batch.push_back(started_since_read[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(started_since_read.size()) - 1))]);
          }
          for (std::size_t i : batch) {
            const bool unread = std::find(started_since_read.begin(), started_since_read.end(),
                                          i) != started_since_read.end();
            if (unread && !table.row(i).finished()) ++finished_unread;
          }
          table.mark_finished(batch, t);
          break;
        }
        default: {  // a read
          ASSERT_EQ(table.running(), rebuilt()) << where;
          started_since_read.clear();
          break;
        }
      }
      ASSERT_EQ(table.running_count(), rebuilt().size()) << where;
    }
    ASSERT_EQ(table.running(), rebuilt()) << "trial " << trial << " (final read)";
  }
  EXPECT_GT(finished_unread, 0) << "no row finished before a read since its start";
}

TEST(JobTable, NonContiguousIds) {
  JobTable table;
  JobRow row;
  row.job_id = 1000;
  table.add(row);
  EXPECT_EQ(table.by_job_id(1000).job_id, 1000);
  EXPECT_THROW(table.by_job_id(500), std::out_of_range);
}

}  // namespace
}  // namespace anor::sim
