// Minimal leveled logging to stderr.
//
// The experiment harness prints its *results* to stdout (so they can be
// redirected / parsed); diagnostic logging goes to stderr through here.
#pragma once

#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace nadmm {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log configuration. Thread-safe.
class Log {
 public:
  static LogLevel level() { return instance().level_; }

  static void write(LogLevel level, const std::string& message) {
    Log& log = instance();
    if (level < log.level_) return;
    const std::scoped_lock lock(log.mutex_);
    std::cerr << "[nadmm:" << name(level) << "] " << message << '\n';
  }

 private:
  static Log& instance() {
    static Log log;
    return log;
  }

  static const char* name(LogLevel level) {
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInfo: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kError: return "error";
      default: return "?";
    }
  }

  LogLevel level_ = LogLevel::kWarn;
  std::mutex mutex_;
};

namespace detail {
inline void log_fmt(LogLevel level, std::ostringstream& os) {
  Log::write(level, os.str());
}
}  // namespace detail

}  // namespace nadmm

#define NADMM_LOG(level, expr)                              \
  do {                                                      \
    if ((level) >= ::nadmm::Log::level()) {                 \
      std::ostringstream nadmm_log_os;                      \
      nadmm_log_os << expr;                                 \
      ::nadmm::Log::write((level), nadmm_log_os.str());     \
    }                                                       \
  } while (false)

#define NADMM_DEBUG(expr) NADMM_LOG(::nadmm::LogLevel::kDebug, expr)
#define NADMM_INFO(expr) NADMM_LOG(::nadmm::LogLevel::kInfo, expr)
#define NADMM_WARN(expr) NADMM_LOG(::nadmm::LogLevel::kWarn, expr)
#define NADMM_ERROR(expr) NADMM_LOG(::nadmm::LogLevel::kError, expr)
