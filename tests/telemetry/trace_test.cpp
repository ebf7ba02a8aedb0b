#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/clock.hpp"
#include "util/json.hpp"

namespace anor::telemetry {
namespace {

TEST(TraceRecorder, RecordsEventsInOrder) {
  TraceRecorder recorder(16);
  recorder.begin("job#1", "job", 1.0);
  recorder.instant("cap_change", "job", 2.0, 250.0);
  recorder.counter("power_w", "cluster", 3.0, 4200.0);
  recorder.complete("job#2", "job", 0.5, 4.5);
  recorder.end("job#1", "job", 5.0);

  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[1].phase, TracePhase::kInstant);
  EXPECT_DOUBLE_EQ(events[1].value, 250.0);
  EXPECT_EQ(events[2].phase, TracePhase::kCounter);
  EXPECT_DOUBLE_EQ(events[2].value, 4200.0);
  EXPECT_EQ(events[3].phase, TracePhase::kComplete);
  EXPECT_DOUBLE_EQ(events[3].dur_s, 4.5);
  EXPECT_EQ(events[4].phase, TracePhase::kEnd);
  EXPECT_EQ(recorder.total_recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorder, RingOverwritesOldestFirst) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 6; ++i) {
    recorder.instant("e" + std::to_string(i), "test", static_cast<double>(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // e0 and e1 were overwritten; the survivors come back oldest first.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
  EXPECT_EQ(events[3].name, "e5");
}

TEST(TraceRecorder, SetCapacityShrinkKeepsNewestEvents) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 6; ++i) {
    recorder.instant("e" + std::to_string(i), "test", static_cast<double>(i));
  }
  recorder.set_capacity(2);
  EXPECT_EQ(recorder.capacity(), 2u);
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.total_recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 4u);
  auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "e4");
  EXPECT_EQ(events[1].name, "e5");
  // The rebound ring keeps overwriting oldest-first.
  recorder.instant("e6", "test", 6.0);
  events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "e5");
  EXPECT_EQ(events[1].name, "e6");
  EXPECT_EQ(recorder.dropped(), 5u);
}

TEST(TraceRecorder, SetCapacityGrowRetainsEventsAndStopsDropping) {
  TraceRecorder recorder(2);
  recorder.instant("a", "t", 0.0);
  recorder.instant("b", "t", 1.0);
  recorder.instant("c", "t", 2.0);  // overwrites "a"
  recorder.set_capacity(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  recorder.instant("d", "t", 3.0);
  recorder.instant("e", "t", 4.0);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "b");
  EXPECT_EQ(events[1].name, "c");
  EXPECT_EQ(events[2].name, "d");
  EXPECT_EQ(events[3].name, "e");
  EXPECT_EQ(recorder.dropped(), 1u);  // only "a", from before the resize
}

TEST(TraceRecorder, ClocklessOverloadsUseBoundClock) {
  TraceRecorder recorder(8);
  util::VirtualClock clock;
  EXPECT_DOUBLE_EQ(recorder.clock_now(), 0.0);  // no clock bound
  {
    const util::ScopedThreadClock bind(&clock);
    clock.advance(7.5);
    EXPECT_DOUBLE_EQ(recorder.clock_now(), 7.5);
    recorder.instant("moment", "test");
    recorder.counter("series", "test", 42.0);
  }
  EXPECT_DOUBLE_EQ(recorder.clock_now(), 0.0);  // the scope restored no clock
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t_s, 7.5);
  EXPECT_DOUBLE_EQ(events[1].t_s, 7.5);
  EXPECT_DOUBLE_EQ(events[1].value, 42.0);
}

TEST(TraceRecorder, DisabledRecorderDropsEvents) {
  TraceRecorder recorder(8);
  recorder.set_enabled(false);
  recorder.instant("ignored", "test", 1.0);
  EXPECT_EQ(recorder.size(), 0u);
  recorder.set_enabled(true);
  recorder.instant("kept", "test", 2.0);
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(TraceRecorder, ClearResetsRingAndTotals) {
  TraceRecorder recorder(2);
  recorder.instant("a", "t", 0.0);
  recorder.instant("b", "t", 1.0);
  recorder.instant("c", "t", 2.0);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  recorder.instant("d", "t", 3.0);
  ASSERT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(recorder.events()[0].name, "d");
}

// Golden-format check: the Chrome exporter must emit exactly the
// trace_event fields chrome://tracing and Perfetto expect.
TEST(TraceRecorder, ChromeExportMatchesTraceEventFormat) {
  TraceRecorder recorder(8);
  recorder.complete("bt.D.x#0", "job", 1.0, 2.5);
  recorder.instant("rebudget", "cluster", 2.0, 3.0);
  recorder.counter("cluster.power_w", "cluster", 4.0, 4200.0);

  std::ostringstream out;
  recorder.export_chrome_json(out);
  const util::Json root = util::Json::parse(out.str());
  const auto& events = root.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");

  const auto& span = events[0].as_object();
  EXPECT_EQ(span.at("ph").as_string(), "X");
  EXPECT_EQ(span.at("name").as_string(), "bt.D.x#0");
  EXPECT_EQ(span.at("cat").as_string(), "job");
  EXPECT_DOUBLE_EQ(span.at("ts").as_number(), 1.0e6);   // microseconds
  EXPECT_DOUBLE_EQ(span.at("dur").as_number(), 2.5e6);  // microseconds
  EXPECT_DOUBLE_EQ(span.at("pid").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(span.at("tid").as_number(), 0.0);

  const auto& instant = events[1].as_object();
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_EQ(instant.at("s").as_string(), "g");
  EXPECT_DOUBLE_EQ(instant.at("args").at("value").as_number(), 3.0);

  const auto& counter = events[2].as_object();
  EXPECT_EQ(counter.at("ph").as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.at("args").at("value").as_number(), 4200.0);
}

TEST(TraceRecorder, JsonlExportIsOneObjectPerLine) {
  TraceRecorder recorder(8);
  recorder.begin("job#1", "job", 1.0);
  recorder.counter("power_w", "cluster", 2.0, 300.0);
  recorder.end("job#1", "job", 3.0);

  std::ostringstream out;
  recorder.export_jsonl(out);
  std::istringstream lines(out.str());
  std::vector<util::Json> parsed;
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) parsed.push_back(util::Json::parse(line));
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].at("ph").as_string(), "B");
  EXPECT_DOUBLE_EQ(parsed[0].at("t_s").as_number(), 1.0);
  EXPECT_EQ(parsed[1].at("ph").as_string(), "C");
  EXPECT_DOUBLE_EQ(parsed[1].at("value").as_number(), 300.0);
  EXPECT_EQ(parsed[2].at("ph").as_string(), "E");
  EXPECT_EQ(parsed[2].at("name").as_string(), "job#1");
}

TEST(TraceSpan, RaiiEmitsBeginAndEnd) {
  TraceRecorder recorder(8);
  util::VirtualClock clock;
  {
    const util::ScopedThreadClock bind(&clock);
    TraceSpan span(recorder, "scope", "test", clock.now());
    clock.advance(2.0);
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_DOUBLE_EQ(events[0].t_s, 0.0);
  EXPECT_EQ(events[1].phase, TracePhase::kEnd);
  EXPECT_DOUBLE_EQ(events[1].t_s, 2.0);
}

TEST(TraceSpan, ExplicitEndWinsOverDestructor) {
  TraceRecorder recorder(8);
  {
    TraceSpan span(recorder, "scope", "test", 0.0);
    span.end(1.5);
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[1].t_s, 1.5);
}

}  // namespace
}  // namespace anor::telemetry
