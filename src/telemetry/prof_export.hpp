// Exporters for the span profiler (telemetry/prof) and the metrics
// registry.
//
// Two wire formats, both deterministic byte-for-byte given the same
// profiler/registry state:
//
//   - Chrome trace-event JSON ("X" complete events, microsecond units,
//     one tid lane per instrumented thread, "M" thread_name metadata) —
//     loadable in chrome://tracing and Perfetto.
//   - Prometheus text exposition (version 0.0.4): registry counters,
//     gauges, and histograms plus profiler phases as summaries with
//     p50/p95/p99 quantile labels.  Families and label sets are emitted
//     in sorted order so diffs and CI greps are stable.
//
// These live in anor_telemetry (they need util::Json and the registry);
// the profiler core itself is the dependency-free anor_prof library.
#pragma once

#include <ostream>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/json.hpp"

namespace anor::telemetry {

/// Chrome trace JSON for the profiler's current lanes:
/// {"traceEvents": [...], "displayTimeUnit": "ms"}.
util::Json prof_chrome_trace_json(const prof::Profiler& profiler);
void write_prof_chrome_trace(std::ostream& out, const prof::Profiler& profiler);

/// Prometheus text exposition of every registry metric; `sanitize` maps
/// '.'/'-' and other illegal name characters to '_'.
std::string prometheus_exposition(const MetricsRegistry& registry);

/// Registry metrics plus profiler phase summaries
/// (anor_prof_span_ns{phase=...,quantile=...}).
std::string prometheus_exposition(const MetricsRegistry& registry,
                                  const prof::Profiler& profiler);

/// Exposition rebuilt from a run artifact's metrics.json (the
/// MetricsRegistry::to_json schema), so `anorctl metrics expose` can
/// publish a finished run without the live registry.
std::string prometheus_exposition_from_artifact(const util::Json& metrics_json);

/// Prometheus-legal metric name ('.' and other illegal chars -> '_').
std::string prometheus_sanitize(std::string_view name);

}  // namespace anor::telemetry
