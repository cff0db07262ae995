#include "common/json_escape.h"

#include <string>

#include <gtest/gtest.h>

namespace cfcm {
namespace {

std::string Escaped(std::string_view text) {
  std::string out = "prefix:";
  AppendJsonEscaped(&out, text);
  return out;
}

TEST(JsonEscapeTest, NamedEscapesAndControlCharacters) {
  EXPECT_EQ(Escaped("a\"b\\c"), "prefix:a\\\"b\\\\c");
  EXPECT_EQ(Escaped("\n\r\t\b\f"), "prefix:\\n\\r\\t\\b\\f");
  EXPECT_EQ(Escaped(std::string_view("\x01\x1f\0", 3)),
            "prefix:\\u0001\\u001f\\u0000");
}

TEST(JsonEscapeTest, PrintableAndUtf8BytesPassThrough) {
  EXPECT_EQ(Escaped("plain / text \x7f"), "prefix:plain / text \x7f");
  EXPECT_EQ(Escaped("\xF0\x9F\x98\x80"), "prefix:\xF0\x9F\x98\x80");
  EXPECT_EQ(Escaped(""), "prefix:");
}

}  // namespace
}  // namespace cfcm
