#pragma once

// String-keyed solver registry — the API seam between the heuristic
// implementations and everything that consumes them (harness, campaign
// specs, CLIs, bench_run_all, the serve daemon).
//
// Every solver is addressed by a spec string:
//
//   name                      defaults, e.g.  greedy
//   name(key=value, ...)      typed options:  exact(cap=9)
//   base+post(...)            post-pass composition:  dpa2d+refine(rounds=4)
//
// Built-ins (in listing order): random, greedy, dpa2d, dpa1d, dpa2d1d,
// exact, anneal, peft, and refine as a composable post-pass.  Third-party solvers
// register through SolverRegistrar at static-initialization time (~20
// lines; see README "Solver API") and are then addressable everywhere a
// built-in is: --heuristics= flags, campaign `heuristics` spec lines,
// SolverSet::parse.
//
// The registry is populated once (built-ins on first use, extensions at
// static init) and read-only afterwards, so concurrent make() calls from
// sweep worker threads need no locking.

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "heuristics/heuristic.hpp"
#include "solve/options.hpp"

namespace spgcmp::solve {

/// Ambient configuration handed to factories: stochastic solvers derive
/// their stream from `seed` unless an explicit seed= option overrides it.
struct SolveContext {
  std::uint64_t seed = 42;
};

struct SolverInfo {
  std::string name;     ///< registry key, lower-case
  std::string summary;  ///< one line for listings
  std::vector<OptionDesc> options;
  /// True for post-passes: usable behind '+' in a chain, where the factory
  /// receives the already-built base solver to wrap.
  bool post_pass = false;
};

class SolverRegistry {
 public:
  /// `base` is null except for post-pass stages of a '+' chain.
  using Factory = std::function<std::unique_ptr<heuristics::Heuristic>(
      const SolverOptions& options, const SolveContext& ctx,
      std::unique_ptr<heuristics::Heuristic> base)>;

  /// The process-wide registry, with built-ins registered.
  [[nodiscard]] static SolverRegistry& instance();

  /// Register a solver; throws SolverError on a duplicate name.
  void add(SolverInfo info, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  /// Registered names, in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const SolverInfo& info(std::string_view name) const;

  /// Build a solver from a spec string.  Throws SolverError on unknown
  /// names, unknown or malformed options, and ill-formed chains.
  [[nodiscard]] std::unique_ptr<heuristics::Heuristic> make(
      std::string_view spec, const SolveContext& ctx = {}) const;

  /// Human-readable listing (the --list-solvers output).
  void describe(std::ostream& os) const;

 private:
  /// The entry for `name`, or the unknown-solver listing error.
  [[nodiscard]] const std::pair<SolverInfo, Factory>& entry(
      std::string_view name) const;

  std::vector<std::pair<SolverInfo, Factory>> entries_;
};

/// Static-initialization hook for third-party solvers:
///
///   static const solve::SolverRegistrar reg(
///       {.name = "peft", .summary = "PEFT list scheduler"},
///       [](const auto& opt, const auto& ctx, auto) { ... });
struct SolverRegistrar {
  SolverRegistrar(SolverInfo info, SolverRegistry::Factory factory) {
    SolverRegistry::instance().add(std::move(info), std::move(factory));
  }
};

/// An ordered, named solver subset resolved from spec strings — the unit
/// the harness's period search and task runner schedule.  Parsing
/// instantiates each spec once to validate it and capture its display
/// name; instantiate() then mints fresh solver instances per call, which
/// is what lets every sweep worker thread own its solvers.
class SolverSet {
 public:
  SolverSet() = default;

  /// Parse a comma-separated solver list, e.g. "dpa2d1d,exact(cap=9)".
  [[nodiscard]] static SolverSet parse(std::string_view csv,
                                       const SolveContext& ctx = {});

  /// The five heuristics evaluated in Section 6, in paper order:
  /// Random, Greedy, DPA2D, DPA1D, DPA2D1D.
  [[nodiscard]] static SolverSet paper(std::uint64_t seed = 42);

  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }
  /// Raw spec strings, as parsed.
  [[nodiscard]] const std::vector<std::string>& specs() const noexcept {
    return specs_;
  }
  /// Display names (Heuristic::name()), aligned with specs().
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] const SolveContext& context() const noexcept { return ctx_; }

  /// Fresh solver instances, in set order.  Thread-safe.
  [[nodiscard]] std::vector<std::unique_ptr<heuristics::Heuristic>>
  instantiate() const;

 private:
  SolveContext ctx_;
  std::vector<std::string> specs_;
  std::vector<std::string> names_;
};

}  // namespace spgcmp::solve
