// Copyright 2026 The LTAM Authors.

#include "util/logging.h"

#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

namespace ltam {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

/// A small stable per-thread id for log correlation. gettid(2) values
/// work too but are noisy (5-7 digits) and Linux-specific; a process-
/// local counter in order of first log line reads better.
uint32_t LogThreadId() {
  static std::atomic<uint32_t> next{1};
  static thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

Result<LogLevel> ParseLogLevel(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warning" || name == "warn") return LogLevel::kWarning;
  if (name == "error") return LogLevel::kError;
  return Status::InvalidArgument("unknown log level '" + name +
                                 "' (debug|info|warning|error)");
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >=
      g_log_level.load(std::memory_order_relaxed)) {
    // Prefix is stamped at emit time, and the whole line goes out in ONE
    // fprintf so concurrent threads' lines interleave whole, never
    // character-by-character.
    struct timeval tv;
    gettimeofday(&tv, nullptr);
    struct tm tm_buf;
    localtime_r(&tv.tv_sec, &tm_buf);
    char when[32];
    const size_t stamped =
        std::strftime(when, sizeof(when), "%Y-%m-%d %H:%M:%S", &tm_buf);
    std::snprintf(when + stamped, sizeof(when) - stamped, ".%03d",
                  static_cast<int>(tv.tv_usec / 1000 % 1000));
    std::fprintf(stderr, "[%s %s t%u %s:%d] %s\n", LevelName(level_), when,
                 LogThreadId(), Basename(file_), line_,
                 stream_.str().c_str());
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace ltam
