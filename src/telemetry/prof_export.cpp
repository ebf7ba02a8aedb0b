#include "telemetry/prof_export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

namespace anor::telemetry {

namespace {

/// Format a double the way Prometheus expects (no exponent surprises for
/// the common integer-valued case).
std::string format_number(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string label_string(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += prometheus_sanitize(key);
    out += "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

std::string label_string_with(const MetricLabels& labels, const std::string& extra_key,
                              const std::string& extra_value) {
  MetricLabels all = labels;
  all.emplace_back(extra_key, extra_value);
  return label_string(all);
}

}  // namespace

std::string prometheus_sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = (c >= '0' && c <= '9');
    if (alpha || c == '_' || c == ':' || (digit && i > 0)) {
      out += c;
    } else {
      out += '_';
    }
  }
  return out;
}

util::Json prof_chrome_trace_json(const prof::Profiler& profiler) {
  const std::vector<std::string> names = profiler.phase_names();
  const double ns_per_tick = profiler.ns_per_tick();
  const double us_per_tick = ns_per_tick / 1000.0;

  util::JsonArray events;
  const std::vector<prof::LaneSnapshot> lanes = profiler.lanes();
  for (const prof::LaneSnapshot& lane : lanes) {
    util::JsonObject meta;
    meta["ph"] = "M";
    meta["pid"] = 0;
    meta["tid"] = lane.lane;
    meta["name"] = "thread_name";
    meta["args"] = util::JsonObject{{"name", lane.thread_name}};
    events.emplace_back(std::move(meta));
  }
  for (const prof::LaneSnapshot& lane : lanes) {
    for (const prof::SpanEvent& span : lane.events) {
      util::JsonObject event;
      event["ph"] = "X";
      event["pid"] = 0;
      event["tid"] = lane.lane;
      event["name"] = span.phase < names.size() ? names[span.phase] : "?";
      event["cat"] = "anor";
      event["ts"] = static_cast<double>(span.start_ticks) * us_per_tick;
      event["dur"] = static_cast<double>(span.dur_ticks) * us_per_tick;
      event["args"] = util::JsonObject{{"depth", static_cast<int>(span.depth)}};
      events.emplace_back(std::move(event));
    }
  }

  util::JsonObject root;
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";
  util::JsonObject metadata;
  metadata["dropped_spans"] = static_cast<double>(profiler.dropped_spans());
  metadata["total_spans"] = static_cast<double>(profiler.total_spans());
  root["metadata"] = std::move(metadata);
  return util::Json(std::move(root));
}

void write_prof_chrome_trace(std::ostream& out, const prof::Profiler& profiler) {
  out << prof_chrome_trace_json(profiler).dump() << "\n";
}

namespace {

std::string exposition_from_snapshots(const std::vector<MetricSnapshot>& snapshots) {
  std::string out;
  // Snapshots arrive key-sorted, so families (and label sets within a
  // family) come out in a stable order; emit one TYPE header per family.
  std::string last_family;
  for (const MetricSnapshot& snap : snapshots) {
    const std::string family = prometheus_sanitize(snap.name);
    if (family != last_family) {
      out += "# TYPE " + family + " ";
      switch (snap.kind) {
        case MetricKind::kCounter: out += "counter"; break;
        case MetricKind::kGauge: out += "gauge"; break;
        case MetricKind::kHistogram: out += "histogram"; break;
      }
      out += "\n";
      last_family = family;
    }
    if (snap.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      if (snap.buckets.size() == snap.bounds.size() + 1) {
        for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
          cumulative += snap.buckets[i];
          out += family + "_bucket" +
                 label_string_with(snap.labels, "le", format_number(snap.bounds[i])) +
                 " " + format_number(static_cast<double>(cumulative)) + "\n";
        }
        cumulative += snap.buckets[snap.bounds.size()];
      } else {
        cumulative = static_cast<std::uint64_t>(snap.value);
      }
      out += family + "_bucket" + label_string_with(snap.labels, "le", "+Inf") + " " +
             format_number(static_cast<double>(cumulative)) + "\n";
      out += family + "_sum" + label_string(snap.labels) + " " + format_number(snap.sum) +
             "\n";
      out += family + "_count" + label_string(snap.labels) + " " +
             format_number(snap.value) + "\n";
    } else {
      out += family + label_string(snap.labels) + " " + format_number(snap.value) + "\n";
    }
  }
  return out;
}

/// Invert metric_key: `name{k=v,k2=v2}` -> (name, labels).  Label values
/// in this codebase never contain ','/'=' (job/phase names), so a flat
/// split is enough.
void parse_metric_key(const std::string& key, std::string& name, MetricLabels& labels) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos) {
    name = key;
    return;
  }
  name = key.substr(0, brace);
  std::size_t pos = brace + 1;
  while (pos < key.size() && key[pos] != '}') {
    const std::size_t eq = key.find('=', pos);
    if (eq == std::string::npos) break;
    std::size_t end = key.find(',', eq);
    if (end == std::string::npos) end = key.find('}', eq);
    if (end == std::string::npos) end = key.size();
    labels.emplace_back(key.substr(pos, eq - pos), key.substr(eq + 1, end - eq - 1));
    pos = end + 1;
  }
}

}  // namespace

std::string prometheus_exposition(const MetricsRegistry& registry) {
  return exposition_from_snapshots(registry.snapshot());
}

std::string prometheus_exposition_from_artifact(const util::Json& metrics_json) {
  std::vector<MetricSnapshot> snapshots;
  for (const auto& [key, entry] : metrics_json.as_object()) {
    MetricSnapshot snap;
    snap.key = key;
    parse_metric_key(key, snap.name, snap.labels);
    const std::string type = entry.string_or("type", "counter");
    snap.kind = type == "gauge"      ? MetricKind::kGauge
                : type == "histogram" ? MetricKind::kHistogram
                                      : MetricKind::kCounter;
    snap.value = entry.number_or("value", 0.0);
    snap.sum = entry.number_or("sum", 0.0);
    if (snap.kind == MetricKind::kHistogram && entry.contains("bounds")) {
      for (const util::Json& b : entry.at("bounds").as_array()) {
        snap.bounds.push_back(b.as_number());
      }
      for (const util::Json& c : entry.at("buckets").as_array()) {
        snap.buckets.push_back(static_cast<std::uint64_t>(c.as_number()));
      }
    }
    snapshots.push_back(std::move(snap));
  }
  // JsonObject iteration is key-sorted already; keep the contract explicit.
  std::sort(snapshots.begin(), snapshots.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.key < b.key; });
  return exposition_from_snapshots(snapshots);
}

std::string prometheus_exposition(const MetricsRegistry& registry,
                                  const prof::Profiler& profiler) {
  std::string out = prometheus_exposition(registry);
  const std::vector<prof::PhaseReport> report = profiler.phase_report();
  if (report.empty()) return out;
  // Profiler phases as a Prometheus summary family, one series per phase
  // (phase_report() is already name-sorted).
  out += "# TYPE anor_prof_span_ns summary\n";
  for (const prof::PhaseReport& phase : report) {
    const MetricLabels labels{{"phase", phase.name}};
    out += "anor_prof_span_ns" + label_string_with(labels, "quantile", "0.5") + " " +
           format_number(phase.p50_ns) + "\n";
    out += "anor_prof_span_ns" + label_string_with(labels, "quantile", "0.95") + " " +
           format_number(phase.p95_ns) + "\n";
    out += "anor_prof_span_ns" + label_string_with(labels, "quantile", "0.99") + " " +
           format_number(phase.p99_ns) + "\n";
    out += "anor_prof_span_ns_sum" + label_string(labels) + " " +
           format_number(phase.total_ns) + "\n";
    out += "anor_prof_span_ns_count" + label_string(labels) + " " +
           format_number(static_cast<double>(phase.count)) + "\n";
  }
  out += "# TYPE anor_prof_dropped_spans counter\n";
  out += "anor_prof_dropped_spans " + format_number(static_cast<double>(profiler.dropped_spans())) +
         "\n";
  return out;
}

}  // namespace anor::telemetry
