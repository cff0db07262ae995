#include "serve/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json_escape.h"

namespace cfcm::serve {
namespace {

constexpr int kMaxDepth = 64;

// Recursive-descent parser over a string_view with explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    StatusOr<JsonValue> value = ParseValue(0);
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting deeper than 64 levels");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue(std::move(*s));
    }
    if (ConsumeLiteral("true")) return JsonValue(true);
    if (ConsumeLiteral("false")) return JsonValue(false);
    if (ConsumeLiteral("null")) return JsonValue(nullptr);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Fail(std::string("unexpected character '") + c + "'");
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(object));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      StatusOr<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      object[std::move(*key)] = std::move(*value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue(std::move(object));
      return Fail("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(array));
    while (true) {
      StatusOr<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      array.push_back(std::move(*value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue(std::move(array));
      return Fail("expected ',' or ']' in array");
    }
  }

  // Appends the UTF-8 encoding of `codepoint` to `out`.
  static void AppendUtf8(uint32_t codepoint, std::string* out) {
    if (codepoint < 0x80) {
      out->push_back(static_cast<char>(codepoint));
    } else if (codepoint < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
      out->push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    } else if (codepoint < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
      out->push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (codepoint >> 18)));
      out->push_back(static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    }
  }

  StatusOr<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return Fail("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return value;
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          StatusOr<uint32_t> unit = ParseHex4();
          if (!unit.ok()) return unit.status();
          uint32_t codepoint = *unit;
          if (codepoint >= 0xD800 && codepoint <= 0xDBFF) {
            // High surrogate: require a following \uXXXX low surrogate.
            if (!ConsumeLiteral("\\u")) return Fail("lone high surrogate");
            StatusOr<uint32_t> low = ParseHex4();
            if (!low.ok()) return low.status();
            if (*low < 0xDC00 || *low > 0xDFFF) {
              return Fail("bad low surrogate");
            }
            codepoint =
                0x10000 + ((codepoint - 0xD800) << 10) + (*low - 0xDC00);
          } else if (codepoint >= 0xDC00 && codepoint <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(codepoint, &out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (integral) {
      errno = 0;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size() && errno == 0) {
        return JsonValue(static_cast<int64_t>(value));
      }
      // Out-of-range integer literal: fall through to double.
    }
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty() ||
        !std::isfinite(value)) {
      return Fail("bad number literal '" + token + "'");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void SerializeTo(const JsonValue& value, std::string* out);

void SerializeNumber(double d, std::string* out) {
  // JSON has no NaN or infinity literal.
  if (!std::isfinite(d)) {
    out->append("null");
    return;
  }
  // %.17g round-trips every double; trim to the shortest form that does.
  char buf[32];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  out->append(buf);
}

void SerializeTo(const JsonValue& value, std::string* out) {
  if (value.is_null()) {
    out->append("null");
  } else if (value.is_bool()) {
    out->append(value.as_bool() ? "true" : "false");
  } else if (value.is_string()) {
    out->push_back('"');
    AppendJsonEscaped(out, value.as_string());
    out->push_back('"');
  } else if (value.is_array()) {
    out->push_back('[');
    const auto& array = value.array();
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) out->push_back(',');
      SerializeTo(array[i], out);
    }
    out->push_back(']');
  } else if (value.is_object()) {
    out->push_back('{');
    bool first = true;
    for (const auto& [key, member] : value.object()) {
      if (!first) out->push_back(',');
      first = false;
      out->push_back('"');
      AppendJsonEscaped(out, key);
      out->append("\":");
      SerializeTo(member, out);
    }
    out->push_back('}');
  } else if (value.is_int()) {
    out->append(std::to_string(value.as_int()));
  } else {
    SerializeNumber(value.as_double(), out);
  }
}

}  // namespace

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, &out);
  return out;
}

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace cfcm::serve
