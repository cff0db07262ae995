// Minimal JSON value, parser and writer for the serving layer's
// line-delimited wire protocol (DESIGN.md §10). No external
// dependencies; hardened for untrusted network input (depth limit,
// strict trailing-garbage check, full escape handling).
#ifndef CFCM_SERVE_JSON_H_
#define CFCM_SERVE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace cfcm::serve {

/// \brief One JSON value: null, bool, number, string, array or object.
///
/// Numbers keep int64 exactness when the literal is integral (seeds are
/// 64-bit), falling back to double otherwise. Objects use std::map so
/// serialization is deterministic (sorted keys) — responses for
/// identical requests are byte-identical, which the serving tests rely
/// on.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}        // NOLINT
  JsonValue(bool b) : value_(b) {}                      // NOLINT
  JsonValue(int64_t i) : value_(i) {}                   // NOLINT
  JsonValue(int i) : value_(static_cast<int64_t>(i)) {}  // NOLINT
  JsonValue(uint64_t u) : value_(static_cast<int64_t>(u)) {}  // NOLINT
  JsonValue(double d) : value_(d) {}                    // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}    // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}  // NOLINT
  JsonValue(Array a) : value_(std::move(a)) {}          // NOLINT
  JsonValue(Object o) : value_(std::move(o)) {}         // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const {
    return std::holds_alternative<int64_t>(value_) ||
           std::holds_alternative<double>(value_);
  }
  /// True when the number is stored as an exact int64.
  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  /// Integral value; a double is truncated toward zero.
  int64_t as_int() const {
    if (const auto* i = std::get_if<int64_t>(&value_)) return *i;
    return static_cast<int64_t>(std::get<double>(value_));
  }
  double as_double() const {
    if (const auto* i = std::get_if<int64_t>(&value_)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& array() const { return std::get<Array>(value_); }
  Array& array() { return std::get<Array>(value_); }
  const Object& object() const { return std::get<Object>(value_); }
  Object& object() { return std::get<Object>(value_); }

  /// Object member lookup; nullptr when not an object or key absent.
  const JsonValue* Find(const std::string& key) const {
    const auto* obj = std::get_if<Object>(&value_);
    if (obj == nullptr) return nullptr;
    auto it = obj->find(key);
    return it == obj->end() ? nullptr : &it->second;
  }

  /// Compact single-line serialization (no spaces, sorted object keys,
  /// "\n"-free — safe to frame as one protocol line). Doubles print at
  /// the shortest round-trip precision; a NaN or infinity prints as
  /// null, since JSON has no literal for it.
  std::string Serialize() const;

  /// Strict parse of a complete JSON document. Rejects trailing
  /// non-whitespace, nesting beyond 64 levels, bad escapes and bad
  /// numbers with InvalidArgument.
  static StatusOr<JsonValue> Parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace cfcm::serve

#endif  // CFCM_SERVE_JSON_H_
