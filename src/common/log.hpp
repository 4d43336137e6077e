// Tiny leveled logger.  Experiments print structured tables themselves; this
// is for progress/diagnostic lines, off by default at DEBUG level.
//
// The output sink is injectable (set_log_sink) so tests can capture and
// assert on WARN/ERROR lines, and every emitted message is counted per
// level in the process MetricsRegistry (log.messages_total.<level>).
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>

namespace swt {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log threshold; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

[[nodiscard]] const char* to_string(LogLevel level) noexcept;

/// "debug" / "info" / "warn" / "error" / "off" (case-sensitive) -> level;
/// nullopt for anything else.  Used by nas_cli's --log-level flag.
[[nodiscard]] std::optional<LogLevel> parse_log_level(const std::string& name) noexcept;

/// Receives every emitted line (already level-filtered), serialized under
/// the logger's lock.  `msg` is the raw message without the level/timestamp
/// prefix the default sink adds.
using LogSink = std::function<void(LogLevel level, const std::string& msg)>;

/// Replace the output sink; an empty function restores the default stderr
/// sink.  Intended for tests and embedders; not reentrant with logging.
void set_log_sink(LogSink sink);

/// Emit one line through the current sink (default: stderr with a level
/// prefix and elapsed-time stamp) and count it in the metrics registry.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  ((os << std::forward<Args>(args)), ...);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_message(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::kError)
    log_message(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

}  // namespace swt
