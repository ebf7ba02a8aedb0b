// ShardWorkers: the persistent team behind sharded stepping (DESIGN.md
// 6h).  These tests pin the rendezvous contract — every lane runs exactly
// once per dispatch, teams are reusable across many dispatches, slice()
// partitions any range exactly, and a lane's exception surfaces on the
// dispatching thread.
#include "util/shard_workers.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace anor::util {
namespace {

TEST(ShardWorkers, RunsEveryLaneExactlyOnce) {
  ShardWorkers team(4);
  ASSERT_EQ(team.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(4);
  team.run([&](std::size_t lane) { hits[lane].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardWorkers, SingleWorkerTeamStillDispatches) {
  ShardWorkers team(1);
  EXPECT_EQ(team.worker_count(), 1u);
  std::atomic<int> hits{0};
  team.run([&](std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ShardWorkers, ReusableAcrossManyDispatches) {
  // The simulator dispatches thousands of times per run; the team must
  // rendezvous cleanly every time, including back-to-back dispatches that
  // race the workers' spin-then-park transition.
  ShardWorkers team(3);
  std::atomic<long> total{0};
  constexpr int kDispatches = 2000;
  for (int i = 0; i < kDispatches; ++i) {
    team.run([&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), static_cast<long>(kDispatches) * 3);
}

TEST(ShardWorkers, SliceCoversRangeDisjointlyInOrder) {
  // slice() is the determinism keystone: for every (count, parts) the
  // slices must tile [0, count) exactly, in lane order, with no overlap —
  // so a fixed-order merge of per-lane partials is independent of which
  // lane ran when.
  for (std::size_t count : {0u, 1u, 7u, 64u, 100u, 257u, 8192u}) {
    for (std::size_t parts : {1u, 2u, 3u, 4u, 8u, 13u}) {
      std::size_t expected_begin = 0;
      for (std::size_t part = 0; part < parts; ++part) {
        const ShardWorkers::Slice s = ShardWorkers::slice(count, parts, part);
        EXPECT_EQ(s.begin, expected_begin)
            << "count=" << count << " parts=" << parts << " part=" << part;
        EXPECT_GE(s.end, s.begin);
        EXPECT_LE(s.end, count);
        expected_begin = s.end;
      }
      EXPECT_EQ(expected_begin, count) << "count=" << count << " parts=" << parts;
    }
  }
}

TEST(ShardWorkers, SliceUsesCeilBlocks) {
  // slice() hands out ceil(count/parts)-sized blocks with short or empty
  // trailing slices — the same fixed boundaries parallel_for chunks by.
  // Every slice is bounded by the block length, and once a slice comes up
  // empty all later ones are empty too.
  for (std::size_t count : {100u, 101u, 1023u}) {
    for (std::size_t parts : {3u, 7u, 16u}) {
      const std::size_t block = (count + parts - 1) / parts;
      bool seen_empty = false;
      for (std::size_t part = 0; part < parts; ++part) {
        const ShardWorkers::Slice s = ShardWorkers::slice(count, parts, part);
        EXPECT_LE(s.end - s.begin, block) << "count=" << count << " parts=" << parts;
        if (seen_empty) EXPECT_TRUE(s.empty());
        seen_empty = seen_empty || s.empty();
      }
    }
  }
}

TEST(ShardWorkers, ParallelSumMatchesSerial) {
  std::vector<double> values(10001);
  std::iota(values.begin(), values.end(), 1.0);
  double serial = 0.0;
  for (double v : values) serial += v;

  ShardWorkers team(4);
  const std::size_t lanes = team.worker_count();
  std::vector<double> partial(lanes, 0.0);
  team.run([&](std::size_t lane) {
    const ShardWorkers::Slice s = ShardWorkers::slice(values.size(), lanes, lane);
    double acc = 0.0;
    for (std::size_t i = s.begin; i < s.end; ++i) acc += values[i];
    partial[lane] = acc;
  });
  // Fixed lane-order merge: bitwise equal to the serial left-to-right sum
  // because each slice is a contiguous run of the same elements.
  double merged = 0.0;
  for (double p : partial) merged += p;
  EXPECT_EQ(merged, serial);
}

TEST(ShardWorkers, ParallelForVisitsEveryIndexOnce) {
  // (workers, count): more items than lanes, and more lanes than items
  // (lanes past the last item get empty slices and must not touch it).
  const std::pair<std::size_t, std::size_t> cases[] = {{4, 1001}, {8, 3}};
  for (const auto& [workers, count] : cases) {
    ShardWorkers team(workers);
    std::vector<std::atomic<int>> hits(count);
    team.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " workers, " << count;
    // Zero-count dispatch is a no-op (and must not deadlock the team).
    team.parallel_for(0, [&](std::size_t) { FAIL() << "body ran for count 0"; });
  }
}

TEST(ShardWorkers, ParallelForAssignsLaneOwnedSlices) {
  // Each lane's slice(count, lanes, lane) must run entirely on one thread,
  // and different lanes on different (persistent) threads.
  ShardWorkers team(3);
  const std::size_t count = 101;
  std::vector<std::thread::id> ran_on(count);
  team.parallel_for(count, [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  std::vector<std::thread::id> lane_threads;
  for (std::size_t lane = 0; lane < team.worker_count(); ++lane) {
    const ShardWorkers::Slice s = ShardWorkers::slice(count, team.worker_count(), lane);
    ASSERT_FALSE(s.empty());
    for (std::size_t i = s.begin; i < s.end; ++i) {
      EXPECT_EQ(ran_on[i], ran_on[s.begin]) << "lane " << lane << " index " << i;
    }
    lane_threads.push_back(ran_on[s.begin]);
  }
  EXPECT_NE(lane_threads[0], lane_threads[1]);
  EXPECT_NE(lane_threads[0], lane_threads[2]);
  EXPECT_NE(lane_threads[1], lane_threads[2]);
  EXPECT_NE(lane_threads[0], std::this_thread::get_id());
}

TEST(ShardWorkers, ParallelForRethrowsLowestLaneError) {
  ShardWorkers team(4);
  // Two lanes fail; the lowest lane's exception wins deterministically.
  try {
    team.parallel_for(8, [&](std::size_t i) {
      const ShardWorkers::Slice low = ShardWorkers::slice(8, 4, 1);
      const ShardWorkers::Slice high = ShardWorkers::slice(8, 4, 3);
      if (i == low.begin) throw std::runtime_error("low lane");
      if (i == high.begin) throw std::runtime_error("high lane");
    });
    FAIL() << "expected a rethrown lane error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "low lane");
  }
  // Still usable afterwards.
  std::atomic<int> hits{0};
  team.parallel_for(4, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ShardWorkers, LaneExceptionRethrownOnCaller) {
  ShardWorkers team(4);
  EXPECT_THROW(
      team.run([&](std::size_t lane) {
        if (lane == 2) throw std::runtime_error("lane 2 failed");
      }),
      std::runtime_error);
  // The team must still be usable after a failed dispatch.
  std::atomic<int> hits{0};
  team.run([&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

}  // namespace
}  // namespace anor::util
