#include "util/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace spgcmp::util {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // The shortest round-trip form has P significant digits, so no %g with
  // fewer digits round-trips.  %.Pg (general format at precision P) is the
  // correctly rounded P-digit form, which near a power of two can miss
  // where the shortest form does not; the first precision from P up whose
  // %g parses back exactly is the shortest %g that round-trips.
  char buf[40];
  const char* end = std::to_chars(buf, buf + sizeof buf, value,
                                  std::chars_format::scientific).ptr;
  int prec = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++prec;
  }
  for (; prec <= 17; ++prec) {  // 17 digits always round-trip
    end = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == value) break;
  }
  // %g may produce "1e+05"; that is valid JSON.  "nan"/"inf" were excluded
  // above.
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

JsonWriter::JsonWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {}

void JsonWriter::newline() {
  if (indent_ < 0) return;  // compact mode: everything on one line
  os_ << '\n';
  const int depth = static_cast<int>(has_elements_.size());
  for (int i = 0; i < depth * indent_; ++i) os_ << ' ';
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) os_ << ',';
    has_elements_.back() = true;
    newline();
  }
}

void JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  has_elements_.push_back(false);
}

void JsonWriter::end_object() {
  const bool had = has_elements_.back();
  has_elements_.pop_back();
  if (had) newline();
  os_ << '}';
  if (has_elements_.empty() && indent_ >= 0) os_ << '\n';
}

void JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  has_elements_.push_back(false);
}

void JsonWriter::end_array() {
  const bool had = has_elements_.back();
  has_elements_.pop_back();
  if (had) newline();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  assert(!has_elements_.empty());
  if (has_elements_.back()) os_ << ',';
  has_elements_.back() = true;
  newline();
  os_ << '"' << json_escape(k) << "\": ";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  os_ << '"' << json_escape(s) << '"';
}

void JsonWriter::value(double v) {
  before_value();
  os_ << json_number(v);
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  before_value();
  os_ << "null";
}

void JsonWriter::raw(std::string_view json) {
  before_value();
  os_ << json;
}

void JsonWriter::value(const std::vector<double>& v) {
  before_value();
  os_ << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os_ << ", ";
    os_ << json_number(v[i]);
  }
  os_ << ']';
}

void JsonWriter::value(const std::vector<std::size_t>& v) {
  before_value();
  os_ << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os_ << ", ";
    os_ << v[i];
  }
  os_ << ']';
}

void JsonWriter::value(const std::vector<std::string>& v) {
  before_value();
  os_ << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os_ << ", ";
    os_ << '"' << json_escape(v[i]) << '"';
  }
  os_ << ']';
}

// ------------------------------------------------------------------------
// Parser.

JsonParseError::JsonParseError(std::size_t offset, const std::string& what)
    : std::runtime_error("JSON parse error at offset " + std::to_string(offset) +
                         ": " + what),
      offset_(offset) {}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::as_number(std::string_view what) const {
  if (type != Type::Number) {
    throw std::runtime_error(std::string(what) + ": expected a JSON number");
  }
  return number;
}

const std::string& JsonValue::as_string(std::string_view what) const {
  if (type != Type::String) {
    throw std::runtime_error(std::string(what) + ": expected a JSON string");
  }
  return string;
}

const std::vector<JsonValue>& JsonValue::as_array(std::string_view what) const {
  if (type != Type::Array) {
    throw std::runtime_error(std::string(what) + ": expected a JSON array");
  }
  return array;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("missing JSON member '" + std::string(key) + "'");
  }
  return *v;
}

namespace {

/// Recursive-descent parser over a string_view.  Depth-limited so a hostile
/// "[[[[..." input cannot blow the stack.
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(pos, what);
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] char peek() const {
    return pos < text.size() ? text[pos] : '\0';
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.type = JsonValue::Type::String;
        v.string = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type = JsonValue::Type::Bool;
        v.boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type = JsonValue::Type::Bool;
        v.boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.type = JsonValue::Type::Null;
        break;
      default: parse_number(v); break;
    }
    --depth;
    return v;
  }

  void parse_object(JsonValue& v) {
    v.type = JsonValue::Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(JsonValue& v) {
    v.type = JsonValue::Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        ++pos;
        continue;
      }
      if (++pos >= text.size()) fail("dangling escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          pos += 4;
          // UTF-8-encode the code point.  Surrogates are written through
          // unpaired (the writer only ever emits \u00xx control escapes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  void parse_number(JsonValue& v) {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size()) {
      const char c = text[pos];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
          c == '-') {
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) fail("expected a value");
    // Copy the token: the view may not be NUL-terminated, strtod needs one.
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos = start;
      fail("malformed number '" + token + "'");
    }
    v.type = JsonValue::Type::Number;
    v.number = d;
  }
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonParser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing characters after document");
  return v;
}

}  // namespace spgcmp::util
