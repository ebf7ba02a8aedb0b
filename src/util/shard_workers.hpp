// Persistent shard workers: the one parallel primitive in the codebase,
// under the sharded stepping architecture (DESIGN.md 6h) and the benches'
// seeded-trial fan-out alike.
//
// A simulator tick's sharded sweep lasts microseconds, so a dispatch
// cannot afford a queue lock, a wake and a join.  Instead `workers`
// long-lived threads are bound to the team for its lifetime, and a
// dispatch is one atomic epoch bump.  Workers spin briefly on the epoch
// counter (they are almost always already hot between consecutive
// simulator dispatches) before parking in std::atomic::wait, run
// `task(worker)` exactly once for their own lane, and count down a
// completion latch the caller spins on.
//
// Determinism contract: the team never decides *what* is computed, only
// *which lane* computes it.  Callers partition work by pure functions of
// (lane, worker_count) over element ranges whose per-element math is
// independent, and merge any partial aggregates in fixed lane order —
// so results are bit-identical at every worker count, including zero
// (see the sharded-stepping determinism tests).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.hpp"

namespace anor::util {

class ShardWorkers {
 public:
  /// Spawns `workers` persistent threads; 0 means one per hardware
  /// thread (at least 1).
  explicit ShardWorkers(std::size_t workers);
  ~ShardWorkers();

  ShardWorkers(const ShardWorkers&) = delete;
  ShardWorkers& operator=(const ShardWorkers&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Invoke task(lane) once per lane in [0, worker_count()) — each on its
  /// persistent thread — and block until all return.  The first exception
  /// thrown by any lane is rethrown here after every lane has finished.
  /// Not reentrant: one dispatch at a time per team.
  void run(FunctionRef<void(std::size_t)> task);

  /// Run body(i) for i in [0, count) across the team and wait: lane k owns
  /// the contiguous slice(count, worker_count(), k), so each chunk executes
  /// entirely on one persistent thread.  Exceptions are collected per lane
  /// and the lowest-lane one is rethrown, independent of finish order.
  /// Shares run()'s non-reentrancy.
  void parallel_for(std::size_t count, FunctionRef<void(std::size_t)> body);

  /// The contiguous slice of [0, count) that lane `part` of `parts` owns:
  /// a pure function of (count, parts, part), so every team size yields
  /// the same overall coverage with disjoint, order-preserving slices.
  struct Slice {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty() const { return begin >= end; }
  };
  static Slice slice(std::size_t count, std::size_t parts, std::size_t part);

 private:
  void worker_loop(std::size_t lane);

  std::vector<std::thread> threads_;
  /// Incremented (release) once per dispatch; workers wait for it to move.
  std::atomic<std::uint64_t> epoch_{0};
  /// Lanes still running the current dispatch; the caller waits for zero.
  std::atomic<std::uint32_t> pending_{0};
  /// Lanes parked in epoch_.wait(); the dispatcher only pays the notify
  /// syscall when someone is actually asleep.
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<bool> stopping_{false};
  FunctionRef<void(std::size_t)> task_;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace anor::util
