#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/json_escape.h"

namespace cfcm::obs {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kWarn)};

std::string WallClockTimestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &secs);
#else
  gmtime_r(&secs, &tm_utc);
#endif
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
                static_cast<int>(millis));
  return buf;
}

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  if (text == "debug") {
    *out = LogLevel::kDebug;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "warn") {
    *out = LogLevel::kWarn;
  } else if (text == "error") {
    *out = LogLevel::kError;
  } else if (text == "off") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogEvent::LogEvent(LogLevel level, std::string_view event)
    : enabled_(level != LogLevel::kOff &&
               static_cast<int>(level) >=
                   g_min_level.load(std::memory_order_relaxed)) {
  if (!enabled_) return;
  line_.reserve(160);
  line_ += "{\"ts\":\"";
  line_ += WallClockTimestamp();
  // The wall clock can step (NTP); mono_ns orders lines reliably and
  // lives on the same clock as trace span offsets.
  char mono[40];
  std::snprintf(mono, sizeof(mono), "\",\"mono_ns\":%" PRId64,
                MonotonicNanos());
  line_ += mono;
  line_ += ",\"level\":\"";
  line_ += LogLevelName(level);
  line_ += "\",\"event\":\"";
  AppendJsonEscaped(&line_, event);
  line_ += '"';
}

LogEvent::~LogEvent() {
  if (!enabled_) return;
  line_ += "}\n";
  // Single fwrite keeps concurrent workers' lines whole (stderr is
  // unbuffered but POSIX write atomicity is what we actually rely on).
  std::fwrite(line_.data(), 1, line_.size(), stderr);
}

LogEvent& LogEvent::Str(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  line_ += ",\"";
  AppendJsonEscaped(&line_, key);
  line_ += "\":\"";
  AppendJsonEscaped(&line_, value);
  line_ += '"';
  return *this;
}

LogEvent& LogEvent::Int(std::string_view key, int64_t value) {
  if (!enabled_) return *this;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  line_ += ",\"";
  AppendJsonEscaped(&line_, key);
  line_ += "\":";
  line_ += buf;
  return *this;
}

LogEvent& LogEvent::Bool(std::string_view key, bool value) {
  if (!enabled_) return *this;
  line_ += ",\"";
  AppendJsonEscaped(&line_, key);
  line_ += "\":";
  line_ += value ? "true" : "false";
  return *this;
}

LogEvent& LogEvent::Double(std::string_view key, double value) {
  if (!enabled_) return *this;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  line_ += ",\"";
  AppendJsonEscaped(&line_, key);
  line_ += "\":";
  // JSON has no NaN or infinity literal (the codec writes null too).
  line_ += std::isfinite(value) ? buf : "null";
  return *this;
}

}  // namespace cfcm::obs
