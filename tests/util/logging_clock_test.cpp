#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "util/clock.hpp"
#include "util/logging.hpp"

namespace anor::util {
namespace {

struct LoggerGuard {
  ~LoggerGuard() {
    Logger::instance().set_sink(nullptr);
    Logger::instance().set_level(LogLevel::kWarn);
    Logger::instance().clear_component_levels();
  }
};

TEST(Logger, LevelGatesOutput) {
  LoggerGuard guard;
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kWarn);
  log_debug("test", "hidden");
  log_info("test", "hidden too");
  log_warn("test", "visible");
  log_error("test", "also visible");
  const std::string text = sink.str();
  EXPECT_EQ(text.find("hidden"), std::string::npos);
  EXPECT_NE(text.find("[WARN "), std::string::npos);
  EXPECT_NE(text.find("] test: visible"), std::string::npos);
  EXPECT_NE(text.find("[ERROR "), std::string::npos);
  EXPECT_NE(text.find("] test: also visible"), std::string::npos);
}

TEST(Logger, LinesCarryWallTimestamp) {
  LoggerGuard guard;
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kWarn);
  log_warn("ts", "stamped");
  const std::string text = sink.str();
  // "[WARN YYYY-MM-DD HH:MM:SS.mmm] ts: stamped"
  ASSERT_GE(text.size(), std::string("[WARN 2026-01-01 00:00:00.000] ").size());
  EXPECT_EQ(text.substr(0, 6), "[WARN ");
  EXPECT_EQ(text[10], '-');
  EXPECT_EQ(text[13], '-');
  EXPECT_EQ(text[16], ' ');
  EXPECT_EQ(text[19], ':');
  EXPECT_EQ(text[22], ':');
  EXPECT_EQ(text[25], '.');
  EXPECT_EQ(text.find("vt="), std::string::npos);  // no clock attached
}

TEST(Logger, VirtualTimestampAppearsWhenClockAttached) {
  LoggerGuard guard;
  std::ostringstream sink;
  VirtualClock clock;
  clock.advance(3.25);
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kWarn);
  {
    const ScopedThreadClock bind(&clock);
    log_warn("vtc", "in virtual time");
  }
  EXPECT_NE(sink.str().find(" vt=3.250] vtc: in virtual time"), std::string::npos);

  sink.str("");
  log_warn("vtc", "back to wall time");
  EXPECT_EQ(sink.str().find("vt="), std::string::npos);
}

TEST(Logger, ComponentOverrideIsMoreVerbose) {
  LoggerGuard guard;
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kWarn);
  Logger::instance().set_component_level("noisy", LogLevel::kTrace);
  log_debug("noisy", "override shows me");
  log_debug("other", "global hides me");
  const std::string text = sink.str();
  EXPECT_NE(text.find("noisy: override shows me"), std::string::npos);
  EXPECT_EQ(text.find("global hides me"), std::string::npos);

  Logger::instance().clear_component_levels();
  sink.str("");
  log_debug("noisy", "gone after clear");
  EXPECT_TRUE(sink.str().empty());
}

TEST(Logger, ComponentOverrideCanSilence) {
  LoggerGuard guard;
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kTrace);
  Logger::instance().set_component_level("chatty", LogLevel::kOff);
  log_error("chatty", "silenced");
  log_error("other", "still here");
  const std::string text = sink.str();
  EXPECT_EQ(text.find("silenced"), std::string::npos);
  EXPECT_NE(text.find("other: still here"), std::string::npos);
}

TEST(Logger, EnabledHonoursComponentOverrides) {
  LoggerGuard guard;
  Logger::instance().set_level(LogLevel::kWarn);
  Logger::instance().set_component_level("net", LogLevel::kDebug);
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kDebug));  // pre-filter: some component wants it
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kDebug, "net"));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kDebug, "sim"));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kTrace));
}

TEST(Logger, ConfigureFromSpec) {
  LoggerGuard guard;
  ASSERT_TRUE(Logger::instance().configure_from_spec("debug, net=error ,sim=off"));
  EXPECT_EQ(Logger::instance().level(), LogLevel::kDebug);
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kDebug, "cluster"));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kWarn, "net"));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError, "net"));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kError, "sim"));
}

TEST(Logger, MalformedSpecIsRejectedAtomically) {
  LoggerGuard guard;
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_FALSE(Logger::instance().configure_from_spec("debug,net=bogus"));
  EXPECT_EQ(Logger::instance().level(), LogLevel::kWarn);  // global token not applied either
  EXPECT_FALSE(Logger::instance().configure_from_spec("=debug"));
  EXPECT_FALSE(Logger::instance().configure_from_spec("loud"));
}

TEST(Logger, OffSilencesEverything) {
  LoggerGuard guard;
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kOff);
  log_error("test", "nope");
  EXPECT_TRUE(sink.str().empty());
}

TEST(Logger, TraceLevelShowsAll) {
  LoggerGuard guard;
  std::ostringstream sink;
  Logger::instance().set_sink(&sink);
  Logger::instance().set_level(LogLevel::kTrace);
  log_trace("t", "a");
  log_debug("t", "b");
  EXPECT_NE(sink.str().find("[TRACE"), std::string::npos);
  EXPECT_NE(sink.str().find("[DEBUG"), std::string::npos);
}

TEST(Logger, LevelNames) {
  EXPECT_EQ(to_string(LogLevel::kTrace), "TRACE");
  EXPECT_EQ(to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(to_string(LogLevel::kInfo), "INFO");
  EXPECT_EQ(to_string(LogLevel::kWarn), "WARN");
  EXPECT_EQ(to_string(LogLevel::kError), "ERROR");
  EXPECT_EQ(to_string(LogLevel::kOff), "OFF");
}

TEST(Logger, ParseLevel) {
  EXPECT_EQ(parse_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_level(" Warn "), LogLevel::kWarn);
  EXPECT_EQ(parse_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_level("loud"), std::nullopt);
  EXPECT_EQ(parse_level(""), std::nullopt);
}

TEST(VirtualClock, StartsAtZeroOrGivenTime) {
  EXPECT_DOUBLE_EQ(VirtualClock().now(), 0.0);
  EXPECT_DOUBLE_EQ(VirtualClock(12.5).now(), 12.5);
}

TEST(VirtualClock, AdvanceIsMonotone) {
  VirtualClock clock;
  clock.advance(1.5);
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance(-10.0);  // ignored
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance_to(1.0);  // backwards: ignored
  EXPECT_DOUBLE_EQ(clock.now(), 1.5);
  clock.advance_to(4.0);
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);
}

TEST(VirtualClock, ThreadBindingNestsAndStaysOnItsThread) {
  const VirtualClock outer(1.0);
  const VirtualClock inner(2.0);
  EXPECT_EQ(thread_clock(), nullptr);
  {
    const ScopedThreadClock bind_outer(&outer);
    {
      const ScopedThreadClock bind_inner(&inner);
      EXPECT_EQ(thread_clock(), &inner);
      const VirtualClock* seen_elsewhere = &inner;
      std::thread other([&seen_elsewhere] { seen_elsewhere = thread_clock(); });
      other.join();
      EXPECT_EQ(seen_elsewhere, nullptr);
    }
    EXPECT_EQ(thread_clock(), &outer);
  }
  EXPECT_EQ(thread_clock(), nullptr);
}

}  // namespace
}  // namespace anor::util
