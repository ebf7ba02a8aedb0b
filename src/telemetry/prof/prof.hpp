// Phase-level span profiler: the wall-clock measurement substrate under
// the whole stack (DESIGN.md 6g "Profiling & span model").
//
// Performance work needs to know where a step's few microseconds actually
// go — control vs node update vs completions — and counters alone cannot
// say.  A ProfScope is an RAII span: construction
// reads a timestamp, destruction reads another and appends one fixed-size
// record to a *thread-local* buffer.  The hot path takes no locks and
// allocates nothing after the first span of a (thread, phase) pair; when
// profiling is disabled the entire cost is one relaxed atomic load per
// scope, so instrumentation can stay compiled in everywhere
// (bench/bench_prof_overhead pins the <2 %-enabled / ~0-disabled
// contract, and spans never touch simulation state, so golden trace
// hashes are bit-identical with profiling on or off).
//
// Per phase each thread keeps count/total/min/max plus an HDR-style
// log-bucketed histogram (8 sub-buckets per power of two, <= 12.5 %
// relative error) for p50/p95/p99, and a bounded ring of raw span events
// (drop-oldest, with a dropped counter) for timeline export.  Timestamps
// are raw TSC ticks on x86 (steady_clock elsewhere), calibrated to
// nanoseconds once at collection time.
//
// Collection contract: phase_report()/lanes()/reset() must run at a
// quiescent point — after worker threads (a sweep's run workers) have
// joined, so the join orders their writes before the collector's reads.
// This library has no dependencies; exporters live in
// telemetry/prof_export.hpp.
#pragma once

#include <atomic>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace anor::telemetry::prof {

/// HDR-style histogram over unsigned values: each power of two is split
/// into 8 sub-buckets, so any recorded value lands in a bucket whose
/// width is at most 1/8 of its magnitude.  record() is two increments and
/// an add; nothing allocates (the bucket array is inline).
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 3;
  static constexpr std::uint32_t kSub = 1u << kSubBits;  // sub-buckets per octave
  /// Max shift is 64-1-kSubBits = 60 -> max major index 61; one extra
  /// octave row covers the top.
  static constexpr std::size_t kBucketCount = (64 - 1 - kSubBits + 2) * kSub;

  /// Bucket that value v falls into.
  static std::uint32_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::uint32_t>(v);
    const std::uint32_t shift =
        static_cast<std::uint32_t>(std::bit_width(v)) - 1 - kSubBits;
    return ((shift + 1) << kSubBits) |
           static_cast<std::uint32_t>((v >> shift) & (kSub - 1));
  }

  /// Smallest value mapping to bucket `index`.
  static std::uint64_t bucket_floor(std::uint32_t index) {
    const std::uint32_t major = index >> kSubBits;
    const std::uint64_t sub = index & (kSub - 1);
    if (major == 0) return sub;
    return (static_cast<std::uint64_t>(kSub) + sub) << (major - 1);
  }

  /// Exclusive upper bound of bucket `index` (floor of the next bucket).
  static std::uint64_t bucket_ceil(std::uint32_t index) {
    return bucket_floor(index + 1);
  }

  void record(std::uint64_t v) {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }

  void reset() { *this = LogHistogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// 0 when empty.
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(std::uint32_t index) const { return buckets_[index]; }

  /// Value at quantile q in [0, 1]: the midpoint of the bucket holding the
  /// ceil(q * count)-th smallest observation (clamped to observed
  /// min/max).  0 when empty.
  std::uint64_t quantile(double q) const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// One closed span in a thread's ring: raw-tick start (absolute), raw-tick
/// duration, phase id, and nesting depth at entry (0 = top level).
struct SpanEvent {
  std::int64_t start_ticks = 0;
  std::int64_t dur_ticks = 0;
  std::uint16_t phase = 0;
  std::uint16_t depth = 0;
};

namespace detail {
/// The enabled flag lives outside the Profiler so the disabled fast path
/// is a single constinit atomic load — no singleton guard, no call.
extern std::atomic<bool> g_enabled;
}  // namespace detail

inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Raw timestamp: TSC ticks on x86 (invariant and core-synchronized on
/// anything modern), steady_clock nanoseconds elsewhere.  Converted to
/// nanoseconds at collection time via Profiler::ns_per_tick().
inline std::int64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<std::int64_t>(__builtin_ia32_rdtsc());
#else
  return std::chrono::steady_clock::now().time_since_epoch().count();
#endif
}

/// Per-thread span storage: a per-phase stats array plus a bounded ring
/// of raw events (drop-oldest).  Owned by the Profiler registry for the
/// process lifetime; the owning thread writes lock-free, collectors read
/// at quiescent points.
class ThreadBuffer {
 public:
  ThreadBuffer(int lane, std::string name, std::size_t capacity)
      : lane_(lane), name_(std::move(name)), capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  void record(std::uint16_t phase, std::uint16_t at_depth, std::int64_t start,
              std::int64_t dur) {
    if (dur < 0) dur = 0;  // TSC skew across a migration; clamp, don't poison
    if (ring_.size() < capacity_) {
      ring_.push_back(SpanEvent{start, dur, phase, at_depth});
    } else {
      ring_[next_] = SpanEvent{start, dur, phase, at_depth};
      if (++next_ == capacity_) next_ = 0;
    }
    ++total_;
    if (phase >= stats_.size()) grow(phase);
    stats_[phase].record(static_cast<std::uint64_t>(dur));
  }

  int lane() const { return lane_; }
  const std::string& name() const { return name_; }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }

  /// Open-scope nesting depth; maintained by ProfScope.
  std::uint16_t depth = 0;

 private:
  friend class Profiler;
  void grow(std::uint16_t phase) { stats_.resize(phase + std::size_t{1}); }

  int lane_;
  std::string name_;
  std::size_t capacity_;
  std::vector<SpanEvent> ring_;
  std::size_t next_ = 0;      // overwrite cursor once the ring is full
  std::uint64_t total_ = 0;   // spans recorded over the buffer's lifetime
  std::vector<LogHistogram> stats_;  // indexed by phase id, grown on demand
};

/// Merged per-phase statistics, converted to nanoseconds.
struct PhaseReport {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;

  double mean_ns() const { return count > 0 ? total_ns / static_cast<double>(count) : 0.0; }
};

/// One thread's timeline, ordered by span start, in raw ticks relative to
/// the profiler epoch.
struct LaneSnapshot {
  int lane = 0;
  std::string thread_name;
  std::vector<SpanEvent> events;  // start_ticks already epoch-relative
  std::uint64_t dropped = 0;
};

/// Process-global span registry: phase-name interning, thread-buffer
/// ownership, and collection/calibration.  All methods are thread-safe;
/// phase_report()/lanes()/reset() additionally require writer quiescence
/// (see the header comment).
class Profiler {
 public:
  static Profiler& global();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Enabling (re-)arms the calibration epoch when the profiler was
  /// previously empty-disabled; spans recorded while disabled are simply
  /// never produced (ProfScope checks the flag at construction).
  void set_enabled(bool on);
  bool enabled() const { return prof::enabled(); }

  /// Intern a phase name -> dense id.  Call once per site (the
  /// ANOR_PROF_SCOPE macro caches the id in a function-local static).
  std::uint16_t phase_id(std::string_view name);
  /// Registered names, indexed by phase id.
  std::vector<std::string> phase_names() const;

  /// Zero every thread's stats and ring (registrations and buffers stay
  /// valid) and start a fresh calibration epoch.
  void reset();

  /// Ring capacity, in spans, for every existing and future thread buffer.
  /// Resizing clears existing rings (stats are kept).
  void set_trace_capacity(std::size_t capacity);
  std::size_t trace_capacity() const;

  /// Name the calling thread's lane ("main", "worker-3", ...).
  static void set_thread_name(std::string_view name);

  /// Merged per-phase stats in name-sorted order (deterministic for diffs
  /// and exposition), nanosecond units.
  std::vector<PhaseReport> phase_report() const;

  /// Per-thread timelines (lanes with zero events are omitted), events
  /// sorted by start, starts rebased to the current epoch.
  std::vector<LaneSnapshot> lanes() const;

  /// Spans overwritten in rings since the last reset, summed over lanes.
  std::uint64_t dropped_spans() const;
  /// Spans recorded since the last reset, summed over lanes.
  std::uint64_t total_spans() const;

  /// Calibrated tick -> nanosecond factor.  Uses the time elapsed since
  /// the epoch as the baseline; spins out to a 200 us minimum baseline if
  /// asked earlier (collection-time only, never on the hot path).
  double ns_per_tick() const;
  std::int64_t epoch_ticks() const;

  /// The calling thread's buffer (registered on first use).  Exposed for
  /// ProfScope; not for direct use.
  ThreadBuffer& local_buffer();

 private:
  Profiler();
  ThreadBuffer& register_thread();
  double ns_per_tick_locked() const;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII span: ~2 timestamp reads plus one ring append when profiling is
/// enabled, one relaxed atomic load when it is not.
class ProfScope {
 public:
  explicit ProfScope(std::uint16_t phase) {
    if (!prof::enabled()) return;
    buffer_ = &Profiler::global().local_buffer();
    phase_ = phase;
    depth_ = buffer_->depth++;
    start_ = now_ticks();
  }

  ~ProfScope() {
    if (buffer_ == nullptr) return;
    const std::int64_t dur = now_ticks() - start_;
    --buffer_->depth;
    buffer_->record(phase_, depth_, start_, dur);
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ThreadBuffer* buffer_ = nullptr;
  std::int64_t start_ = 0;
  std::uint16_t phase_ = 0;
  std::uint16_t depth_ = 0;
};

}  // namespace anor::telemetry::prof

#define ANOR_PROF_CONCAT2(a, b) a##b
#define ANOR_PROF_CONCAT(a, b) ANOR_PROF_CONCAT2(a, b)

/// Span over the enclosing scope.  The phase id is interned once per call
/// site (function-local static); `name` must be a stable string.
#define ANOR_PROF_SCOPE(name)                                                      \
  static const std::uint16_t ANOR_PROF_CONCAT(anor_prof_id_, __LINE__) =           \
      ::anor::telemetry::prof::Profiler::global().phase_id(name);                  \
  ::anor::telemetry::prof::ProfScope ANOR_PROF_CONCAT(anor_prof_scope_, __LINE__)( \
      ANOR_PROF_CONCAT(anor_prof_id_, __LINE__))
