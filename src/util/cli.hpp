#pragma once

// Minimal CLI/environment configuration helpers for benches and examples.
//
// Bench binaries run unattended (`for b in build/bench/*; do $b; done`), so
// every knob has a default and can be overridden either by `--key=value`
// arguments or by `REPRO_*` environment variables (environment wins are
// explicit: CLI > env > default).  Each binary names the keys it accepts,
// so a typo'd or unknown flag fails before any work instead of silently
// running with defaults.

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spgcmp::util {

/// A command line naming a flag its binary does not accept.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parsed `--key=value` / `--flag` command line.
class Args {
 public:
  /// Positional arguments are skipped.  Every `--key` must be one of
  /// `accepted`; otherwise throws UsageError naming the key and listing
  /// the accepted names.  Lookups must use accepted keys.
  Args(int argc, const char* const* argv,
       std::initializer_list<std::string_view> accepted);

  /// Value of `--key=...` if present.
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  /// True if `--key` or `--key=...` appears.
  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed lookups falling back to environment variable `env` then `fallback`.
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::string_view env,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, std::string_view env,
                                  double fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view env,
                                       std::string fallback) const;

 private:
  std::vector<std::string> accepted_;
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Read environment variable; empty optional when unset.
[[nodiscard]] std::optional<std::string> env_string(std::string_view name);

}  // namespace spgcmp::util
