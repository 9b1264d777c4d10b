#pragma once

// Minimal streaming JSON writer for structured bench output.
//
// bench_run_all emits one BENCH_*.json document per figure/table so that
// downstream tooling (plot scripts, regression diffing between runs at
// different thread counts) can consume results without scraping console
// tables.  The writer is deliberately tiny: objects, arrays, strings,
// numbers and booleans, with deterministic locale-independent number
// formatting — two runs producing the same values produce byte-identical
// documents.

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spgcmp::util {

/// Escape a string for inclusion in a JSON document (adds no quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Format a double as a JSON number token: shortest round-trip decimal,
/// locale-independent.  Non-finite values become null (JSON has no inf/nan).
[[nodiscard]] std::string json_number(double value);

/// Streaming writer with indentation and automatic comma placement.
/// Usage:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("bench"); w.value("fig8");
///   w.key("cells"); w.begin_array(); ... w.end_array();
///   w.end_object();
///
/// `indent < 0` selects compact single-line emission (no newlines or
/// indentation), the format used for JSONL records.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 2);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  /// Convenience: `key(k)` followed by `value(v)`.
  template <typename T>
  void kv(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// Splice pre-rendered JSON text in value position (comma and key
  /// bookkeeping still apply).  The text must be exactly one well-formed
  /// JSON value; the writer does not re-validate it.  Used to serve cached
  /// payloads byte-identically without a parse/re-emit round trip.
  void raw(std::string_view json);

  /// Convenience: a whole array of doubles / sizes on one line.
  void value(const std::vector<double>& v);
  void value(const std::vector<std::size_t>& v);
  void value(const std::vector<std::string>& v);

 private:
  void before_value();
  void newline();

  std::ostream& os_;
  int indent_;
  // One frame per open container: true once the first element was written.
  std::vector<bool> has_elements_;
  bool pending_key_ = false;
};

// ------------------------------------------------------------------------
// Minimal JSON parser — the read side of the campaign JSONL protocol.
//
// Numbers are parsed with strtod, so any double emitted through
// json_number() (shortest round-trip decimal) parses back to the exact
// same bits; that property is what lets merged campaign aggregates be
// byte-identical to one-shot runs.

/// Parse failure with the byte offset where it occurred.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(std::size_t offset, const std::string& what);
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// An owned JSON document tree.  Object member order is preserved.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Checked accessors: throw std::runtime_error naming `what` when the
  /// value has the wrong type (for diagnostics like "shard record: ...").
  [[nodiscard]] double as_number(std::string_view what) const;
  [[nodiscard]] const std::string& as_string(std::string_view what) const;
  [[nodiscard]] const std::vector<JsonValue>& as_array(std::string_view what) const;

  /// Required object member of a given shape; throws naming the key.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Parse one JSON document; trailing non-whitespace is an error.
/// Throws JsonParseError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace spgcmp::util
