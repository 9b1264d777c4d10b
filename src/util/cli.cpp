#include "util/cli.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

#include "util/parse.hpp"

namespace spgcmp::util {

Args::Args(int argc, const char* const* argv,
           std::initializer_list<std::string_view> accepted)
    : accepted_(accepted.begin(), accepted.end()) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;  // ignore positional arguments
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    std::string key(arg.substr(0, eq));
    if (std::find(accepted_.begin(), accepted_.end(), key) == accepted_.end()) {
      std::string names;
      for (const auto& name : accepted_) names += (names.empty() ? "--" : ", --") + name;
      throw UsageError("unknown flag '--" + key + "' (expected " + names + ")");
    }
    kv_.emplace_back(std::move(key), eq == std::string_view::npos
                                         ? std::string()
                                         : std::string(arg.substr(eq + 1)));
  }
}

std::optional<std::string> Args::get(std::string_view key) const {
  assert(std::find(accepted_.begin(), accepted_.end(), key) != accepted_.end());
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

bool Args::has(std::string_view key) const { return get(key).has_value(); }

namespace {

// The source a value came from, so diagnostics name "--flag=x" for CLI
// values and "ENV=x (environment)" for environment fallbacks.
enum class Source { Flag, Env };

// A typo'd value must abort with the offending key and value, not an opaque
// "terminate called"; parsing itself is util::parse_number's single strict
// grammar (no whitespace, no '+', no hex, no nan/inf), shared with the
// campaign-spec and solver-option parsers.
[[noreturn]] void bad_value(std::string_view key, const std::string& value,
                            Source src, const char* want) {
  const std::string where =
      src == Source::Flag ? "--" + std::string(key) + "=" + value
                          : std::string(key) + "=" + value + " (environment)";
  throw std::invalid_argument(where + ": expected " + want);
}

std::int64_t parse_int(std::string_view key, const std::string& value, Source src) {
  std::int64_t out = 0;
  switch (parse_number(value, out)) {
    case ParseStatus::Ok: return out;
    case ParseStatus::OutOfRange: bad_value(key, value, src, "an integer in range");
    case ParseStatus::Malformed: break;
  }
  bad_value(key, value, src, "an integer");
}

double parse_double(std::string_view key, const std::string& value, Source src) {
  double out = 0.0;
  switch (parse_number(value, out)) {
    case ParseStatus::Ok: return out;
    case ParseStatus::OutOfRange: bad_value(key, value, src, "a number in range");
    case ParseStatus::Malformed: break;
  }
  bad_value(key, value, src, "a finite number");
}

}  // namespace

std::int64_t Args::get_int(std::string_view key, std::string_view env,
                           std::int64_t fallback) const {
  if (auto v = get(key); v && !v->empty()) return parse_int(key, *v, Source::Flag);
  if (auto v = env_string(env); v && !v->empty()) {
    return parse_int(env, *v, Source::Env);
  }
  return fallback;
}

double Args::get_double(std::string_view key, std::string_view env,
                        double fallback) const {
  if (auto v = get(key); v && !v->empty()) return parse_double(key, *v, Source::Flag);
  if (auto v = env_string(env); v && !v->empty()) {
    return parse_double(env, *v, Source::Env);
  }
  return fallback;
}

std::string Args::get_string(std::string_view key, std::string_view env,
                             std::string fallback) const {
  if (auto v = get(key); v && !v->empty()) return *v;
  if (auto v = env_string(env); v && !v->empty()) return *v;
  return fallback;
}

std::optional<std::string> env_string(std::string_view name) {
  const char* v = std::getenv(std::string(name).c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

}  // namespace spgcmp::util
