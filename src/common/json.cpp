#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace volley {

namespace {

/// Recursive-descent parser over the input with line:column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw std::invalid_argument("json:" + std::to_string(line_) + ":" +
                                std::to_string(col_) + ": " + reason);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char take() {
    if (eof()) fail("unexpected end of input");
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void expect(char want, const char* what) {
    if (eof() || peek() != want)
      fail(std::string("expected ") + what);
    take();
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        take();
      } else {
        break;
      }
    }
  }

  JsonValue value() {
    if (eof()) fail("unexpected end of input, expected a value");
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return JsonValue(string());
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return JsonValue(nullptr);
      default:
        return number();
    }
  }

  void literal(std::string_view word) {
    for (char want : word) {
      if (eof() || peek() != want)
        fail("invalid literal (expected '" + std::string(word) + "')");
      take();
    }
  }

  JsonValue boolean() {
    if (peek() == 't') {
      literal("true");
      return JsonValue(true);
    }
    literal("false");
    return JsonValue(false);
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') take();
    bool digits = false;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
      take();
      digits = true;
    }
    if (!digits) fail("invalid number");
    if (!eof() && peek() == '.') {
      take();
      bool frac = false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        take();
        frac = true;
      }
      if (!frac) fail("invalid number: digits required after '.'");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      take();
      if (!eof() && (peek() == '+' || peek() == '-')) take();
      bool exp = false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        take();
        exp = true;
      }
      if (!exp) fail("invalid number: digits required in exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), out);
    if (ec != std::errc() || ptr != token.data() + token.size() ||
        !std::isfinite(out))
      fail("number out of range");
    return JsonValue(out);
  }

  std::string string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char esc = take();
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof()) fail("truncated \\u escape");
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape digit");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are rejected:
          // scenario files are ASCII-first config, not prose).
          if (code >= 0xD800 && code <= 0xDFFF)
            fail("surrogate \\u escapes are not supported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape character");
      }
    }
  }

  JsonValue array() {
    expect('[', "'['");
    JsonValue::Array out;
    skip_ws();
    if (!eof() && peek() == ']') {
      take();
      return JsonValue(std::move(out));
    }
    for (;;) {
      skip_ws();
      out.push_back(value());
      skip_ws();
      if (eof()) fail("unterminated array");
      const char c = take();
      if (c == ']') return JsonValue(std::move(out));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue object() {
    expect('{', "'{'");
    JsonValue::Object out;
    skip_ws();
    if (!eof() && peek() == '}') {
      take();
      return JsonValue(std::move(out));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      expect(':', "':' after object key");
      skip_ws();
      if (!out.emplace(key, value()).second)
        fail("duplicate object key '" + key + "'");
      skip_ws();
      if (eof()) fail("unterminated object");
      const char c = take();
      if (c == '}') return JsonValue(std::move(out));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::size_t line_{1};
  std::size_t col_{1};
};

[[noreturn]] void type_error(const std::string& where, const char* want) {
  throw std::invalid_argument("scenario: " + where + ": expected " + want);
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).run(); }

bool JsonValue::as_bool(const std::string& where) const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  type_error(where, "a boolean");
}

double JsonValue::as_number(const std::string& where) const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  type_error(where, "a number");
}

std::int64_t JsonValue::as_int(const std::string& where) const {
  const double d = as_number(where);
  // Range first: casting a double outside int64's range is undefined.
  // Both bounds are powers of two, so the test is exact.
  if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d))
    type_error(where, "an integer");
  return static_cast<std::int64_t>(d);
}

const std::string& JsonValue::as_string(const std::string& where) const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  type_error(where, "a string");
}

const JsonValue::Array& JsonValue::as_array(const std::string& where) const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  type_error(where, "an array");
}

const JsonValue::Object& JsonValue::as_object(const std::string& where) const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  type_error(where, "an object");
}

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto* obj = std::get_if<Object>(&value_);
  if (!obj) return nullptr;
  const auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

std::string json_number(double v, int precision) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace volley
