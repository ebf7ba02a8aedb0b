// Control-loop tracing: a bounded ring of timestamped trace events.
//
// Records what the control plane decided and when, on the virtual
// timeline: job lifetimes as complete spans, cap changes and budget
// redistributions as instant events, series values as counter events.
// The ring has fixed capacity and overwrites the oldest events when full,
// so tracing can stay on for arbitrarily long runs; `total_recorded()`
// minus `size()` says how many were dropped.  Exporters produce Chrome
// `trace_event` JSON (load in chrome://tracing or https://ui.perfetto.dev)
// and line-delimited JSON for ad-hoc tooling.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.hpp"

namespace anor::telemetry {

enum class TracePhase : std::uint8_t {
  kBegin,     // Chrome "B": span start
  kEnd,       // Chrome "E": span end
  kComplete,  // Chrome "X": span with duration (safe with overlapping jobs)
  kInstant,   // Chrome "i": a moment (cap change, rebudget, refit)
  kCounter,   // Chrome "C": a sampled series value
};

std::string_view chrome_phase(TracePhase phase);

struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  double t_s = 0.0;    // virtual time of the event
  double dur_s = 0.0;  // kComplete only
  double value = 0.0;  // kCounter payload (also attached to instants)
  std::string name;
  std::string category;
};

/// Bounded, thread-safe trace-event ring.  Event timestamps are virtual
/// seconds: pass them explicitly, or use the clockless overloads, which
/// read the calling thread's clock (util::ScopedThreadClock).
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The calling thread's clock's current time (0 when none is bound).
  static double clock_now();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void begin(std::string_view name, std::string_view category, double t_s);
  void end(std::string_view name, std::string_view category, double t_s);
  void complete(std::string_view name, std::string_view category, double t_begin_s,
                double dur_s);
  void instant(std::string_view name, std::string_view category, double t_s,
               double value = 0.0);
  void counter(std::string_view name, std::string_view category, double t_s, double value);

  /// Clockless overloads: stamp clock_now().
  void instant(std::string_view name, std::string_view category);
  void counter(std::string_view name, std::string_view category, double value);

  std::size_t capacity() const;
  /// Rebound the ring at runtime (minimum 1).  Keeps the newest
  /// min(new_capacity, size()) events; anything older counts as dropped.
  void set_capacity(std::size_t capacity);
  /// Events currently retained (<= capacity).
  std::size_t size() const;
  /// Events recorded over the recorder's lifetime (>= size()).
  std::uint64_t total_recorded() const;
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const;

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

  void clear();

  /// Chrome trace_event JSON ({"traceEvents": [...]}).
  void export_chrome_json(std::ostream& out) const;
  /// One JSON object per line: {"ph","t_s","name","cat",...}.
  void export_jsonl(std::ostream& out) const;

  /// Process-global recorder used by the instrumented framework layers.
  static TraceRecorder& global();

 private:
  void push(TraceEvent event);

  /// Oldest retained event's index when the ring is full (the overwrite
  /// cursor); 0 while still filling.
  std::size_t head_locked() const;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // overwrite cursor once full
  std::uint64_t total_ = 0;
  bool enabled_ = true;
};

/// RAII span against a recorder: begin at construction, end at
/// destruction (at the thread's clock_now()) or at an explicit end(t_s)
/// call.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder& recorder, std::string_view name, std::string_view category,
            double t_begin_s);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void end(double t_s);

 private:
  TraceRecorder* recorder_;
  std::string name_;
  std::string category_;
  bool ended_ = false;
};

}  // namespace anor::telemetry
