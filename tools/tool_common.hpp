#pragma once

// Shared CLI conventions of spgcmp_cli and spgcmp_campaign.
//
// Both tools answer configuration mistakes the same way:
//
//   unknown solver / bad solver option   exit 2, solver registry listing
//   unknown topology                     exit 2, topology name listing
//   campaign-spec errors (line-numbered) exit 2
//   unknown --flag                       exit 2, accepted flag names
//   --list-solvers                       print the registry listing, exit 0
//   anything else (I/O, invalid input)   exit 1
//
// run_tool wraps a tool's command dispatch in that contract so the
// binaries cannot drift apart again; each constructs its util::Args inside
// run_tool, so an unknown flag takes the exit-2 path.

#include <cstdio>
#include <sstream>

#include "cmp/cmp.hpp"
#include "solve/registry.hpp"
#include "util/cli.hpp"
#include "util/spec.hpp"

namespace spgcmp::tools {

inline void print_solver_listing(std::FILE* to) {
  std::ostringstream os;
  solve::SolverRegistry::instance().describe(os);
  std::fputs(os.str().c_str(), to);
}

/// Handle --list-solvers (and eagerly validate any --heuristics value so
/// `tool --heuristics=... --list-solvers` diagnoses bad specs).  Returns
/// true when the flag was present and the caller should exit with 0.
inline bool handle_list_solvers(const util::Args& args) {
  if (!args.has("list-solvers")) return false;
  if (const auto hs = args.get("heuristics"); hs && !hs->empty()) {
    (void)solve::SolverSet::parse(*hs);  // throws into run_tool on error
  }
  print_solver_listing(stdout);
  return true;
}

/// The solver set selected by --heuristics / REPRO_HEURISTICS (paper set
/// when absent), seeded with `seed`.
inline solve::SolverSet solvers_of(const util::Args& args, std::uint64_t seed) {
  const std::string csv = args.get_string("heuristics", "REPRO_HEURISTICS", "");
  if (csv.empty()) return solve::SolverSet::paper(seed);
  return solve::SolverSet::parse(csv, solve::SolveContext{seed});
}

template <typename Fn>
int run_tool(const char* tool, Fn&& fn) {
  try {
    return fn();
  } catch (const solve::SolverError& e) {
    std::fprintf(stderr, "%s: %s\n\n", tool, e.what());
    print_solver_listing(stderr);
    return 2;
  } catch (const cmp::TopologyError& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 2;
  } catch (const util::SpecError& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 2;
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace spgcmp::tools
