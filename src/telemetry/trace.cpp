#include "telemetry/trace.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace anor::telemetry {

std::string_view chrome_phase(TracePhase phase) {
  switch (phase) {
    case TracePhase::kBegin: return "B";
    case TracePhase::kEnd: return "E";
    case TracePhase::kComplete: return "X";
    case TracePhase::kInstant: return "i";
    case TracePhase::kCounter: return "C";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void TraceRecorder::push(TraceEvent event) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::size_t TraceRecorder::head_locked() const {
  return ring_.size() < capacity_ ? 0 : next_;
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity = std::max<std::size_t>(capacity, 1);
  if (capacity == capacity_) return;
  // Rebuild oldest-first, keeping the newest events that still fit; the
  // rebuilt ring starts at index 0 so the cursor resets cleanly.
  std::vector<TraceEvent> kept;
  const std::size_t keep = std::min(capacity, ring_.size());
  kept.reserve(capacity);
  const std::size_t head = head_locked();
  for (std::size_t i = ring_.size() - keep; i < ring_.size(); ++i) {
    kept.push_back(std::move(ring_[(head + i) % ring_.size()]));
  }
  ring_ = std::move(kept);
  capacity_ = capacity;
  next_ = 0;
}

void TraceRecorder::begin(std::string_view name, std::string_view category, double t_s) {
  push(TraceEvent{TracePhase::kBegin, t_s, 0.0, 0.0, std::string(name), std::string(category)});
}

void TraceRecorder::end(std::string_view name, std::string_view category, double t_s) {
  push(TraceEvent{TracePhase::kEnd, t_s, 0.0, 0.0, std::string(name), std::string(category)});
}

void TraceRecorder::complete(std::string_view name, std::string_view category,
                             double t_begin_s, double dur_s) {
  push(TraceEvent{TracePhase::kComplete, t_begin_s, dur_s, 0.0, std::string(name),
                  std::string(category)});
}

void TraceRecorder::instant(std::string_view name, std::string_view category, double t_s,
                            double value) {
  push(TraceEvent{TracePhase::kInstant, t_s, 0.0, value, std::string(name),
                  std::string(category)});
}

void TraceRecorder::counter(std::string_view name, std::string_view category, double t_s,
                            double value) {
  push(TraceEvent{TracePhase::kCounter, t_s, 0.0, value, std::string(name),
                  std::string(category)});
}

double TraceRecorder::clock_now() {
  const util::VirtualClock* clock = util::thread_clock();
  return clock != nullptr ? clock->now() : 0.0;
}

void TraceRecorder::instant(std::string_view name, std::string_view category) {
  instant(name, category, clock_now());
}

void TraceRecorder::counter(std::string_view name, std::string_view category, double value) {
  counter(name, category, clock_now(), value);
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t TraceRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ - ring_.size();
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t head = head_locked();
  if (head == 0) return ring_;
  std::vector<TraceEvent> ordered;
  ordered.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ordered.push_back(ring_[(head + i) % ring_.size()]);
  }
  return ordered;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

namespace {

util::Json chrome_event_json(const TraceEvent& event) {
  util::JsonObject obj;
  obj["name"] = util::Json(event.name);
  obj["cat"] = util::Json(event.category);
  obj["ph"] = util::Json(std::string(chrome_phase(event.phase)));
  obj["ts"] = util::Json(event.t_s * 1e6);  // chrome wants microseconds
  obj["pid"] = util::Json(0);
  obj["tid"] = util::Json(0);
  if (event.phase == TracePhase::kComplete) obj["dur"] = util::Json(event.dur_s * 1e6);
  if (event.phase == TracePhase::kInstant) obj["s"] = util::Json(std::string("g"));
  if (event.phase == TracePhase::kCounter || event.value != 0.0) {
    util::JsonObject args;
    args["value"] = util::Json(event.value);
    obj["args"] = util::Json(std::move(args));
  }
  return util::Json(std::move(obj));
}

}  // namespace

void TraceRecorder::export_chrome_json(std::ostream& out) const {
  util::JsonArray events_json;
  for (const TraceEvent& event : events()) events_json.push_back(chrome_event_json(event));
  util::JsonObject root;
  root["traceEvents"] = util::Json(std::move(events_json));
  root["displayTimeUnit"] = util::Json(std::string("ms"));
  out << util::Json(std::move(root)).dump() << '\n';
}

void TraceRecorder::export_jsonl(std::ostream& out) const {
  for (const TraceEvent& event : events()) {
    util::JsonObject obj;
    obj["ph"] = util::Json(std::string(chrome_phase(event.phase)));
    obj["t_s"] = util::Json(event.t_s);
    obj["name"] = util::Json(event.name);
    obj["cat"] = util::Json(event.category);
    if (event.phase == TracePhase::kComplete) obj["dur_s"] = util::Json(event.dur_s);
    if (event.phase == TracePhase::kCounter || event.value != 0.0) {
      obj["value"] = util::Json(event.value);
    }
    out << util::Json(std::move(obj)).dump() << '\n';
  }
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

TraceSpan::TraceSpan(TraceRecorder& recorder, std::string_view name, std::string_view category,
                     double t_begin_s)
    : recorder_(&recorder), name_(name), category_(category) {
  recorder_->begin(name_, category_, t_begin_s);
}

void TraceSpan::end(double t_s) {
  if (ended_) return;
  ended_ = true;
  recorder_->end(name_, category_, t_s);
}

TraceSpan::~TraceSpan() {
  if (!ended_) end(recorder_->clock_now());
}

}  // namespace anor::telemetry
