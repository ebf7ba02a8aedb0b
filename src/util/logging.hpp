// Minimal leveled logger.
//
// The framework logs sparingly: control decisions at kDebug, lifecycle
// events at kInfo, anomalies at kWarn/kError.  The logger is process-global
// and thread-safe; experiments typically run with kWarn to keep bench
// output clean.
//
// Each line carries a wall-clock timestamp, and — when a `VirtualClock`
// is bound to the logging thread (`ScopedThreadClock`, util/clock.hpp) —
// the virtual time of the emulated run, so log lines line up with trace
// events and artifact time series:
//
//   [WARN 2026-08-06 12:34:56.789 vt=120.500] cluster: over budget
//
// The effective level can be overridden per component (the first argument
// of the log_* helpers), and the whole configuration can be set from the
// `ANOR_LOG_LEVEL` environment variable with the syntax
// `level[,component=level...]`, e.g. `ANOR_LOG_LEVEL=warn,cluster=debug`.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace anor::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Returns the canonical short tag for a level ("TRACE", "DEBUG", ...).
std::string_view to_string(LogLevel level);

/// Parses a level name case-insensitively ("warn", "WARNING", "off", ...).
/// Returns std::nullopt for unrecognised text.
std::optional<LogLevel> parse_level(std::string_view text);

/// Process-global logger.  Use via the convenience functions below or
/// `Logger::instance()`.
class Logger {
 public:
  /// On first use, applies `ANOR_LOG_LEVEL` (if set) via
  /// `configure_from_spec`.
  static Logger& instance();

  void set_level(LogLevel level);
  LogLevel level() const;

  /// Overrides the threshold for one component (first argument of the
  /// log_* helpers).  Overrides may be more or less verbose than the
  /// global level; `kOff` silences a component entirely.
  void set_component_level(std::string_view component, LogLevel level);
  void clear_component_levels();

  /// Redirect output (default: std::clog).  The stream must outlive all
  /// logging calls; pass nullptr to restore the default.
  void set_sink(std::ostream* sink);

  /// Fast pre-filter: true if `level` could be emitted for *some*
  /// component.  Lock-free; use `enabled(level, component)` for the
  /// authoritative per-component answer.
  bool enabled(LogLevel level) const {
    return static_cast<int>(level) >= min_enabled_.load(std::memory_order_relaxed);
  }

  /// True if a message at `level` from `component` would be written.
  bool enabled(LogLevel level, std::string_view component) const;

  /// Applies a `level[,component=level...]` specification (the
  /// `ANOR_LOG_LEVEL` syntax).  Returns false — leaving the configuration
  /// untouched — if any token fails to parse.
  bool configure_from_spec(std::string_view spec);

  /// Write one formatted line:
  /// "[LEVEL <wall timestamp>[ vt=<virtual seconds>]] component: message",
  /// with vt= read from the calling thread's clock when one is bound.
  void write(LogLevel level, std::string_view component, std::string_view message);

 private:
  Logger();

  void recompute_min_enabled_locked();

  mutable std::mutex mutex_;
  LogLevel level_ = LogLevel::kWarn;
  std::map<std::string, LogLevel, std::less<>> component_levels_;
  std::ostream* sink_ = nullptr;
  std::atomic<int> min_enabled_{static_cast<int>(LogLevel::kWarn)};
};

namespace detail {
inline void log(LogLevel level, std::string_view component, std::string_view message) {
  Logger& logger = Logger::instance();
  if (!logger.enabled(level)) return;
  if (logger.enabled(level, component)) logger.write(level, component, message);
}
}  // namespace detail

inline void log_trace(std::string_view c, std::string_view m) { detail::log(LogLevel::kTrace, c, m); }
inline void log_debug(std::string_view c, std::string_view m) { detail::log(LogLevel::kDebug, c, m); }
inline void log_info(std::string_view c, std::string_view m) { detail::log(LogLevel::kInfo, c, m); }
inline void log_warn(std::string_view c, std::string_view m) { detail::log(LogLevel::kWarn, c, m); }
inline void log_error(std::string_view c, std::string_view m) { detail::log(LogLevel::kError, c, m); }

}  // namespace anor::util
