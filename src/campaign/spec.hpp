#pragma once

// Declarative campaign specs — the input language of the campaign service.
//
// A campaign is a grid of sweeps (each a {graph family, n, platform,
// heuristic-set, seed range} product expanded into deterministic instances)
// plus derived failure tables, all destined for BENCH_<name>.json reports.
// The same spec drives three consumers:
//
//   * the one-shot bench_run_all (bench/run_all.cpp runs the paper spec's
//     sweeps through the shared instance pipeline, one batch each),
//   * the resumable campaign service (tools/spgcmp_campaign), and
//   * tests, which replay tiny specs at several thread counts and demand
//     byte-identical merged output.
//
// Surface syntax is util::SpecDocument's sectioned key-value format:
//
//   campaign paper
//   topology mesh
//
//   [sweep fig8_streamit_4x4]
//   kind streamit
//   rows 4
//   cols 4
//
//   [sweep fig10_random_n50_4x4]
//   kind random
//   n 50
//   rows 4
//   cols 4
//   elevations 1 2 5 8 11 14 17 20     # or: max_y 20 / step 3
//   apps 5
//   seed 42
//   heuristics dpa2d1d,exact(cap=9)    # solver subset; default: paper set
//
//   [table table2_failures]
//   kind streamit_failures
//   key platform
//   from fig8_streamit_4x4 fig9_streamit_6x6
//   labels 4x4 6x6
//
// Parsing is strict: unknown keys, unknown kinds, duplicate names and
// dangling table references are errors naming the offending line.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace spgcmp::campaign {

/// The four CCR settings of the StreamIt experiments: the original value,
/// then uniformly 10, 1 and 0.1 (Section 6.1.1).
[[nodiscard]] const std::vector<std::pair<std::string, double>>& streamit_ccrs();

/// The CCRs swept by the random-SPG figures.
[[nodiscard]] const std::vector<double>& random_ccrs();

/// Elevation grids used on the figures' x axes (subset of the paper's
/// 1..20 / 1..30 sweep; density controlled by `step`).
[[nodiscard]] std::vector<int> default_elevations(int max_y, int step);

enum class SweepKind : std::uint8_t {
  Streamit,  ///< the 12-app StreamIt suite x streamit_ccrs()
  Random,    ///< random SPGs: random_ccrs() x elevations x apps
};

/// One sweep: expands into a deterministic, ordered instance list.
struct SweepSpec {
  std::string name;  ///< BENCH report name, e.g. "fig8_streamit_4x4"
  SweepKind kind = SweepKind::Streamit;
  int rows = 4;
  int cols = 4;
  /// Solver subset for this sweep as registry spec strings (`heuristics`
  /// key, e.g. "dpa2d1d,exact(cap=9)"); empty selects the paper set, and
  /// is what every pre-existing spec and output stays byte-identical on.
  std::vector<std::string> solvers;
  // Random sweeps only:
  std::size_t n = 50;
  std::vector<int> elevations;  ///< x axis; empty only for streamit sweeps
  std::size_t apps = 5;         ///< workloads per (ccr, elevation) point
  std::uint64_t seed_base = 42;
  /// Instances per shard; 0 selects the service default.
  std::size_t shard_size = 0;
};

enum class TableKind : std::uint8_t {
  StreamitFailures,    ///< per-source-sweep failure totals (Table 2)
  RandomFailuresByCcr  ///< per-CCR failure totals of one random sweep (Table 3)
};

/// A failure table derived from finished sweeps (no instances of its own).
struct TableSpec {
  std::string name;  ///< BENCH report name, e.g. "table2_failures"
  TableKind kind = TableKind::StreamitFailures;
  std::string key_column;         ///< label key, e.g. "platform" or "ccr"
  std::vector<std::string> from;  ///< source sweep names
  std::vector<std::string> labels;  ///< row labels (StreamitFailures only)
};

struct CampaignSpec {
  std::string name = "campaign";
  std::string topology = "mesh";
  std::vector<SweepSpec> sweeps;
  std::vector<TableSpec> tables;

  /// Parse / serialize the spec text format.  serialize() round-trips
  /// through parse() exactly, which is what lets a campaign directory
  /// carry its own spec for resume.
  [[nodiscard]] static CampaignSpec parse(std::istream& is);
  [[nodiscard]] static CampaignSpec parse_string(const std::string& text);
  void serialize(std::ostream& os) const;
  [[nodiscard]] std::string to_text() const;

  [[nodiscard]] const SweepSpec* find_sweep(std::string_view name) const noexcept;

  /// The paper reproduction grid of bench/run_all: figures 8-13 plus
  /// tables 2-3 (table 1 is static and needs no campaign).
  [[nodiscard]] static CampaignSpec paper(std::size_t apps, std::size_t apps150,
                                          int step, int step150,
                                          const std::string& topology = "mesh");
};

}  // namespace spgcmp::campaign
