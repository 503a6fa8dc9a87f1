// JSON, read and written once for the whole codebase.
//
// The reader, `JsonValue`, parses scenario files; tests read exported
// trace lines through it too. It is deliberately small and strict: RFC
// 8259 values only (no comments, no trailing commas, no NaN/Infinity),
// duplicate object keys rejected, and every error carries the line:column
// where parsing stopped plus what was expected — a scenario typo must
// produce an actionable message, not a silently defaulted knob (same
// philosophy as common/config.h).
//
// Objects preserve no insertion order (std::map, key-sorted) — scenario
// semantics never depend on key order, and deterministic iteration keeps
// everything downstream byte-reproducible.
//
// The writers, `json_number` and `json_escape`, format the numbers of the
// metrics snapshot, the trace export and the soak report, and the soak
// report's free-text strings, so each emitted byte follows one rule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace volley {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  /// Parses one JSON document; trailing non-whitespace is an error.
  /// Throws std::invalid_argument with "json:<line>:<col>: <reason>".
  static JsonValue parse(std::string_view text);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  // Typed accessors. `where` names the field for the error message
  // ("scenario: <where>: expected <type>").
  bool as_bool(const std::string& where) const;
  double as_number(const std::string& where) const;
  /// Rejects a fraction and a value outside int64's range.
  std::int64_t as_int(const std::string& where) const;
  const std::string& as_string(const std::string& where) const;
  const Array& as_array(const std::string& where) const;
  const Object& as_object(const std::string& where) const;

  /// Object member lookup; nullptr when absent (or when not an object).
  const JsonValue* find(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// `v` as a JSON number: printf's "%.<precision>g" (the default 17
/// significant digits round-trip every double), or `null` when `v` is not
/// finite — JSON has no Inf or NaN.
std::string json_number(double v, int precision = 17);

/// `s` with `"`, `\`, newline and tab escaped, for a JSON string body.
std::string json_escape(std::string_view s);

}  // namespace volley
