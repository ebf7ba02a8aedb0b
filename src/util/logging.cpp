#include "util/logging.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <utility>
#include <vector>

#include "util/clock.hpp"

namespace anor::util {
namespace {

std::string ascii_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

/// "2026-08-06 12:34:56.789" in UTC.
std::string wall_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm_utc{};
  gmtime_r(&secs, &tm_utc);
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02d %02d:%02d:%02d.%03d",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday, tm_utc.tm_hour,
                tm_utc.tm_min, tm_utc.tm_sec, static_cast<int>(ms));
  return buffer;
}

}  // namespace

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::optional<LogLevel> parse_level(std::string_view text) {
  const std::string lower = ascii_lower(trim(text));
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return std::nullopt;
}

Logger::Logger() {
  if (const char* spec = std::getenv("ANOR_LOG_LEVEL"); spec != nullptr) {
    if (!configure_from_spec(spec)) {
      std::clog << "[WARN " << wall_timestamp() << "] logging: ignoring malformed ANOR_LOG_LEVEL \""
                << spec << "\"\n";
    }
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_level(LogLevel level) {
  std::lock_guard<std::mutex> lock(mutex_);
  level_ = level;
  recompute_min_enabled_locked();
}

LogLevel Logger::level() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return level_;
}

void Logger::set_component_level(std::string_view component, LogLevel level) {
  std::lock_guard<std::mutex> lock(mutex_);
  component_levels_.insert_or_assign(std::string(component), level);
  recompute_min_enabled_locked();
}

void Logger::clear_component_levels() {
  std::lock_guard<std::mutex> lock(mutex_);
  component_levels_.clear();
  recompute_min_enabled_locked();
}

void Logger::set_sink(std::ostream* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink;
}

bool Logger::enabled(LogLevel level, std::string_view component) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = component_levels_.find(component);
  const LogLevel threshold = it != component_levels_.end() ? it->second : level_;
  return level >= threshold;
}

bool Logger::configure_from_spec(std::string_view spec) {
  // Parse completely before mutating so a bad token leaves the current
  // configuration intact.
  std::optional<LogLevel> global;
  std::vector<std::pair<std::string, LogLevel>> overrides;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      const auto level = parse_level(token);
      if (!level.has_value()) return false;
      global = level;
    } else {
      const std::string_view component = trim(token.substr(0, eq));
      const auto level = parse_level(token.substr(eq + 1));
      if (component.empty() || !level.has_value()) return false;
      overrides.emplace_back(std::string(component), *level);
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (global.has_value()) level_ = *global;
  for (auto& [component, level] : overrides) {
    component_levels_.insert_or_assign(std::move(component), level);
  }
  recompute_min_enabled_locked();
  return true;
}

void Logger::recompute_min_enabled_locked() {
  int min_level = static_cast<int>(level_);
  for (const auto& [component, level] : component_levels_) {
    min_level = std::min(min_level, static_cast<int>(level));
  }
  min_enabled_.store(min_level, std::memory_order_relaxed);
}

void Logger::write(LogLevel level, std::string_view component, std::string_view message) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostream& out = sink_ != nullptr ? *sink_ : std::clog;
  out << '[' << to_string(level) << ' ' << wall_timestamp();
  if (const VirtualClock* clock = thread_clock()) {
    char vt[32];
    std::snprintf(vt, sizeof(vt), " vt=%.3f", clock->now());
    out << vt;
  }
  out << "] " << component << ": " << message << '\n';
}

}  // namespace anor::util
