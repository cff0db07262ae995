// Structured logging: the mono_ns field (DESIGN.md §12/§15) — present
// on every line, parseable, and monotone across consecutive events, so
// log lines order reliably even across NTP steps of the wall clock.
//
// Captures stderr by swapping the underlying fd for a pipe around the
// emission; the log writer uses one fwrite per line, so reads from the
// pipe see whole lines.
#include "obs/log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "serve/json.h"

namespace cfcm::obs {
namespace {

// Runs `emit` with stderr redirected into a pipe and returns everything
// it wrote.
std::string CaptureStderr(void (*emit)()) {
  std::fflush(stderr);
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const int saved = ::dup(STDERR_FILENO);
  EXPECT_GE(saved, 0);
  EXPECT_GE(::dup2(fds[1], STDERR_FILENO), 0);
  ::close(fds[1]);
  emit();
  std::fflush(stderr);
  EXPECT_GE(::dup2(saved, STDERR_FILENO), 0);
  ::close(saved);
  std::string captured;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buffer, sizeof(buffer))) > 0) {
    captured.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  return captured;
}

// Extracts the integer after `"mono_ns":`; -1 when absent.
int64_t ExtractMonoNs(const std::string& line, std::size_t from = 0) {
  const std::size_t at = line.find("\"mono_ns\":", from);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + 10, nullptr, 10);
}

TEST(LogEvent, EmitsMonoNsAfterTs) {
  const std::string captured = CaptureStderr([] {
    LogEvent(LogLevel::kError, "log_test_event").Str("key", "value");
  });
  ASSERT_NE(captured.find("\"event\":\"log_test_event\""), std::string::npos)
      << captured;
  // Field order is fixed: ts, then mono_ns, then level.
  const std::size_t ts_at = captured.find("\"ts\":\"");
  const std::size_t mono_at = captured.find("\"mono_ns\":");
  const std::size_t level_at = captured.find("\"level\":\"error\"");
  ASSERT_NE(ts_at, std::string::npos) << captured;
  ASSERT_NE(mono_at, std::string::npos) << captured;
  ASSERT_NE(level_at, std::string::npos) << captured;
  EXPECT_LT(ts_at, mono_at);
  EXPECT_LT(mono_at, level_at);
  EXPECT_GT(ExtractMonoNs(captured), 0);
}

TEST(LogEvent, MonoNsIsMonotoneAcrossEvents) {
  const std::string captured = CaptureStderr([] {
    LogEvent(LogLevel::kError, "log_test_first");
    LogEvent(LogLevel::kError, "log_test_second");
  });
  const std::size_t second_at = captured.find("\"event\":\"log_test_second\"");
  ASSERT_NE(second_at, std::string::npos) << captured;
  const int64_t first_ns = ExtractMonoNs(captured);
  // The second line starts before its event field; search backwards-safe
  // by scanning from the start of the second line.
  const std::size_t second_line = captured.rfind('{', second_at);
  ASSERT_NE(second_line, std::string::npos);
  const int64_t second_ns = ExtractMonoNs(captured, second_line);
  ASSERT_GT(first_ns, 0);
  ASSERT_GT(second_ns, 0);
  EXPECT_GE(second_ns, first_ns);
}

TEST(LogEvent, LineIsJsonWithEscapedStrings) {
  // Keys and values go through the codec's escaper: the line parses back
  // to the same strings, control characters included.
  const std::string captured = CaptureStderr([] {
    LogEvent(LogLevel::kError, "log_test_escape")
        .Str("path", "a\"b\\c\b\f\n\x01")
        .Str("k\"ey", "v");
  });
  ASSERT_FALSE(captured.empty());
  StatusOr<serve::JsonValue> line =
      serve::JsonValue::Parse(captured.substr(0, captured.find('\n')));
  ASSERT_TRUE(line.ok()) << line.status().ToString() << "\n" << captured;
  EXPECT_EQ(line->Find("path")->as_string(), "a\"b\\c\b\f\n\x01");
  EXPECT_EQ(line->Find("k\"ey")->as_string(), "v");
}

TEST(LogEvent, NonFiniteDoubleIsNull) {
  const std::string captured = CaptureStderr([] {
    LogEvent(LogLevel::kError, "log_test_nan")
        .Double("nan", std::nan(""))
        .Double("inf", HUGE_VAL)
        .Double("x", 0.5);
  });
  StatusOr<serve::JsonValue> line =
      serve::JsonValue::Parse(captured.substr(0, captured.find('\n')));
  ASSERT_TRUE(line.ok()) << line.status().ToString() << "\n" << captured;
  EXPECT_TRUE(line->Find("nan")->is_null());
  EXPECT_TRUE(line->Find("inf")->is_null());
  EXPECT_EQ(line->Find("x")->as_double(), 0.5);
}

TEST(LogEvent, DroppedLevelEmitsNothing) {
  const LogLevel saved = MinLogLevel();
  SetMinLogLevel(LogLevel::kWarn);
  const std::string captured = CaptureStderr([] {
    LogEvent(LogLevel::kDebug, "log_test_dropped");
  });
  SetMinLogLevel(saved);
  EXPECT_EQ(captured.find("log_test_dropped"), std::string::npos) << captured;
}

}  // namespace
}  // namespace cfcm::obs
