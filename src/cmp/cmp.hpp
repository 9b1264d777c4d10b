#pragma once

// Chip-multiprocessor platform model — Section 3.2 of the paper.
//
// A p x q grid of homogeneous DVFS cores.  Neighboring cores are joined by
// bidirectional links of bandwidth BW; each direction is an independent
// resource (full duplex), so loads and the period constraint are tracked
// per *directed* link.  The grid can be logically reconfigured as a
// uni-line CMP by embedding a boustrophedon ("snake") order, which visits
// all p*q cores along physically adjacent hops — the configuration used by
// the DPA1D / DPA2D1D heuristics.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace spgcmp::cmp {

/// Core coordinates, 0-based internally ((0,0) is the paper's C_{1,1}).
struct CoreId {
  int row = 0;  ///< u in the paper, 0..p-1
  int col = 0;  ///< v in the paper, 0..q-1
  friend bool operator==(CoreId a, CoreId b) noexcept = default;
};

/// Link directions out of a core.
enum class Dir : std::uint8_t { North = 0, South = 1, West = 2, East = 3 };

/// The reverse direction (North <-> South, West <-> East).
[[nodiscard]] constexpr Dir opposite(Dir d) noexcept {
  switch (d) {
    case Dir::North: return Dir::South;
    case Dir::South: return Dir::North;
    case Dir::West: return Dir::East;
    case Dir::East: return Dir::West;
  }
  return d;
}

/// Human-readable direction name ("North", ...), for diagnostics.
[[nodiscard]] const char* to_string(Dir d) noexcept;

/// A directed link: from `from` toward `dir`.
struct LinkId {
  CoreId from;
  Dir dir = Dir::East;
  friend bool operator==(LinkId a, LinkId b) noexcept = default;
};

/// Rectangular grid topology with uniform link bandwidth.
class Grid {
 public:
  Grid(int rows, int cols, double bandwidth_bytes_per_s);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] int core_count() const noexcept { return rows_ * cols_; }
  [[nodiscard]] double bandwidth() const noexcept { return bandwidth_; }

  [[nodiscard]] bool contains(CoreId c) const noexcept {
    return c.row >= 0 && c.row < rows_ && c.col >= 0 && c.col < cols_;
  }

  /// Flat index of a core (row-major).
  [[nodiscard]] int core_index(CoreId c) const noexcept { return c.row * cols_ + c.col; }
  [[nodiscard]] CoreId core_at(int index) const noexcept {
    return CoreId{index / cols_, index % cols_};
  }

  /// Neighbor in a given direction; `contains()` must be checked by caller
  /// via `has_neighbor`.
  [[nodiscard]] bool has_neighbor(CoreId c, Dir d) const noexcept {
    switch (d) {
      case Dir::North: return c.row > 0;
      case Dir::South: return c.row + 1 < rows_;
      case Dir::West: return c.col > 0;
      case Dir::East: return c.col + 1 < cols_;
    }
    return false;
  }
  [[nodiscard]] CoreId neighbor(CoreId c, Dir d) const noexcept {
    switch (d) {
      case Dir::North: return CoreId{c.row - 1, c.col};
      case Dir::South: return CoreId{c.row + 1, c.col};
      case Dir::West: return CoreId{c.row, c.col - 1};
      case Dir::East: return CoreId{c.row, c.col + 1};
    }
    return c;
  }

  /// Dense index of a directed link, for per-link load accumulators.
  /// Valid links get indices in [0, link_count()).
  [[nodiscard]] int link_index(LinkId l) const;
  [[nodiscard]] int link_count() const noexcept { return 4 * rows_ * cols_; }

  /// XY route: horizontal hops first (west/east), then vertical.
  /// Empty when src == dst.
  [[nodiscard]] std::vector<LinkId> xy_route(CoreId src, CoreId dst) const;

  /// Route along the snake order between two cores (used by the 1D
  /// heuristics): follows consecutive physically-adjacent snake hops from
  /// the earlier snake position to the later one.  Requires
  /// snake_position(src) <= snake_position(dst).
  [[nodiscard]] std::vector<LinkId> snake_route(CoreId src, CoreId dst) const;

  /// Boustrophedon embedding: snake_core(k) is the k-th core along
  /// row 0 left->right, row 1 right->left, ...
  [[nodiscard]] CoreId snake_core(int k) const;
  [[nodiscard]] int snake_position(CoreId c) const noexcept;

  /// Manhattan distance between two cores.
  [[nodiscard]] int manhattan(CoreId a, CoreId b) const noexcept;

 private:
  int rows_;
  int cols_;
  double bandwidth_;
};

/// DVFS speed/power model (Intel XScale values from Section 6.1.2).
/// Speeds in Hz, powers in Watts.  `speed(k)` is increasing in k.
class SpeedModel {
 public:
  /// XScale: speeds {0.15, 0.4, 0.6, 0.8, 1.0} GHz,
  /// dynamic power {80, 170, 400, 900, 1600} mW, leakage 80 mW.
  [[nodiscard]] static SpeedModel xscale();

  SpeedModel(std::vector<double> speeds_hz, std::vector<double> dynamic_w,
             double leak_w);

  [[nodiscard]] std::size_t mode_count() const noexcept { return speeds_.size(); }
  [[nodiscard]] double speed(std::size_t k) const { return speeds_[k]; }
  [[nodiscard]] double dynamic_power(std::size_t k) const { return dynamic_[k]; }
  [[nodiscard]] double leak_power() const noexcept { return leak_; }
  [[nodiscard]] double max_speed() const noexcept { return speeds_.back(); }

  /// Slowest mode able to execute `work` cycles within `period` seconds;
  /// returns mode_count() when even the fastest mode is too slow.
  [[nodiscard]] std::size_t slowest_feasible(double work, double period) const;

  /// Energy (J) for executing `work` cycles at mode k plus leakage over one
  /// period: P_leak * T + (work / s_k) * P_k.
  [[nodiscard]] double core_energy(double work, std::size_t k, double period) const;

 private:
  std::vector<double> speeds_;
  std::vector<double> dynamic_;
  double leak_;
};

/// Communication energy/bandwidth constants (Section 6.1.2).
struct CommModel {
  double energy_per_byte = 6e-12 * 8.0;  ///< E_bit = 6 pJ/bit, per link hop
  double leak_power = 0.0;               ///< P_leak^(comm), 0 in the paper
};

/// Which fabric a Topology models on top of the rectangular core layout.
enum class TopologyKind : std::uint8_t { Mesh, Snake, Torus, HeteroMesh };

/// Unknown topology name passed to Topology::make.  Typed so CLI layers can
/// answer it with the topology listing and a consistent exit code.
class TopologyError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Pluggable interconnect topology over a p x q core layout.
///
/// The Grid stays a pure geometry helper (coordinates, mesh neighbors, the
/// snake embedding); a Topology decides which directed links exist, what
/// the default route between two cores is, and how fast each core runs.
/// Default routes for every ordered core pair are precomputed into one flat
/// table at construction, so hot paths (the mapping::Evaluator, route
/// attachment) serve routes as spans instead of rebuilding std::vectors:
///
///   Mesh        mesh links, XY (horizontal-then-vertical) routes
///   Snake       mesh links, routes follow the boustrophedon embedding
///   Torus       mesh links plus row/column wrap-around links; per-dimension
///               shortest direction, ties broken toward East/South
///   HeteroMesh  mesh links and XY routes, but cores alternate between full
///               speed and a reduced speed scale in a checkerboard pattern
///
/// Every mesh link exists in all four topologies, so a mapping routed with
/// mesh paths stays structurally valid on any of them; only Torus adds
/// links of its own (the wrap-arounds).
class Topology {
 public:
  [[nodiscard]] static Topology mesh(int rows, int cols, double bandwidth);
  [[nodiscard]] static Topology snake(int rows, int cols, double bandwidth);
  [[nodiscard]] static Topology torus(int rows, int cols, double bandwidth);
  /// Checkerboard of full-speed and `slow_scale`-speed cores ((0,0) fast).
  [[nodiscard]] static Topology hetero_mesh(int rows, int cols, double bandwidth,
                                            double slow_scale = 0.75);
  /// Factory by name: "mesh", "snake", "torus" or "hetero"; throws
  /// TopologyError on anything else.
  [[nodiscard]] static Topology make(const std::string& name, int rows, int cols,
                                     double bandwidth);
  /// The names `make` accepts, in presentation order.
  [[nodiscard]] static const std::vector<std::string>& names();

  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] int core_count() const noexcept { return grid_.core_count(); }
  /// Dense directed-link index space (shared with Grid::link_index); wrap
  /// links of the torus reuse the indices a mesh leaves unused.
  [[nodiscard]] int link_count() const noexcept { return grid_.link_count(); }

  /// True when the directed link out of `c` toward `d` exists here.
  [[nodiscard]] bool has_link(CoreId c, Dir d) const noexcept;
  /// Endpoint of that link (wraps around on the torus).
  [[nodiscard]] CoreId link_target(CoreId c, Dir d) const noexcept;
  /// Dense index of a directed link; throws std::out_of_range (naming the
  /// core and direction) when the link does not exist in this topology.
  [[nodiscard]] int link_index(LinkId l) const;

  /// Default route between two cores (empty when src == dst), served from
  /// the precomputed table.  Valid for the lifetime of the Topology.
  [[nodiscard]] std::span<const LinkId> route(int src_core, int dst_core) const noexcept;
  /// The same route as dense link indices (avoids link_index() in loops).
  [[nodiscard]] std::span<const int> route_links(int src_core,
                                                 int dst_core) const noexcept;
  /// Hop count of the default route.
  [[nodiscard]] int distance(int src_core, int dst_core) const noexcept;

  /// Relative speed of a core (multiplies every SpeedModel mode); 1.0
  /// everywhere except on the heterogeneous mesh.
  [[nodiscard]] double core_speed_scale(int core) const noexcept {
    return speed_scale_.empty() ? 1.0 : speed_scale_[static_cast<std::size_t>(core)];
  }
  /// True when some core runs below full speed.
  [[nodiscard]] bool heterogeneous() const noexcept { return !speed_scale_.empty(); }

 private:
  Topology(TopologyKind kind, std::string name, Grid grid);
  void build_route_table();
  /// Hop count of the default route, without walking it.
  [[nodiscard]] int hops(CoreId src, CoreId dst) const noexcept;
  /// Write the default route from src to dst into both pools from `at`;
  /// returns the position after its last hop.
  std::size_t write_route(CoreId src, CoreId dst, std::size_t at);

  TopologyKind kind_;
  std::string name_;
  Grid grid_;
  std::vector<double> speed_scale_;      ///< empty = homogeneous (all 1.0)
  // Routes for all ordered pairs, flattened: pair (s, d) occupies
  // [route_begin_[s*N+d], route_begin_[s*N+d+1]) in both pools.
  std::vector<LinkId> route_pool_;
  std::vector<int> route_link_pool_;     ///< parallel pool of dense indices
  std::vector<std::uint32_t> route_begin_;
};

/// Bundled platform description handed to heuristics.
struct Platform {
  Topology topology;
  SpeedModel speeds;
  CommModel comm;

  /// Core geometry of the topology (kept as the platform's vocabulary type
  /// for coordinates, indexing and the snake embedding).
  [[nodiscard]] const Grid& grid() const noexcept { return topology.grid(); }

  /// The paper's reference platform: p x q mesh, BW = 16 B * 1.2 GHz,
  /// XScale cores, E_bit = 6 pJ.
  [[nodiscard]] static Platform reference(int rows, int cols);
  /// Reference constants on a named topology ("mesh", "snake", "torus",
  /// "hetero").
  [[nodiscard]] static Platform reference(const std::string& topology, int rows,
                                          int cols);
};

}  // namespace spgcmp::cmp
