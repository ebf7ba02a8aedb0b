// Virtual time base for the emulated cluster and simulators.
//
// All control loops, message latencies, and workload progress advance
// against a `VirtualClock` so hour-long scenarios run in milliseconds and
// results are independent of wall-clock scheduling.
//
// Trace events and log lines recorded without an explicit time read the
// clock bound to the calling thread (ScopedThreadClock), so runs stepping
// on different threads each stamp their own virtual time.
#pragma once

#include <cstdint>

namespace anor::util {

class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(double start_s) : now_s_(start_s) {}

  double now() const { return now_s_; }

  /// Advance by a non-negative delta.  Negative deltas are ignored (time is
  /// monotonic by construction).
  void advance(double delta_s) {
    if (delta_s > 0.0) now_s_ += delta_s;
  }

  /// Jump to an absolute time not before `now()`.
  void advance_to(double t_s) {
    if (t_s > now_s_) now_s_ = t_s;
  }

 private:
  double now_s_ = 0.0;
};

namespace detail {
inline thread_local const VirtualClock* thread_clock = nullptr;
}  // namespace detail

/// The clock bound to the calling thread; nullptr when none is.
inline const VirtualClock* thread_clock() { return detail::thread_clock; }

/// Binds a clock to the calling thread for the scope's lifetime and
/// restores the previous binding at exit, so a binding never outlives the
/// scope that made it.  The clock must outlive the scope.
class ScopedThreadClock {
 public:
  explicit ScopedThreadClock(const VirtualClock* clock) : previous_(detail::thread_clock) {
    detail::thread_clock = clock;
  }
  ~ScopedThreadClock() { detail::thread_clock = previous_; }
  ScopedThreadClock(const ScopedThreadClock&) = delete;
  ScopedThreadClock& operator=(const ScopedThreadClock&) = delete;

 private:
  const VirtualClock* previous_;
};

}  // namespace anor::util
