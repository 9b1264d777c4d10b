#include "cmp/cmp.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace spgcmp::cmp {

const char* to_string(Dir d) noexcept {
  switch (d) {
    case Dir::North: return "North";
    case Dir::South: return "South";
    case Dir::West: return "West";
    case Dir::East: return "East";
  }
  return "?";
}

Topology::Topology(TopologyKind kind, std::string name, Grid grid)
    : kind_(kind), name_(std::move(name)), grid_(grid) {}

Topology Topology::mesh(int rows, int cols, double bandwidth) {
  Topology t(TopologyKind::Mesh, "mesh", Grid(rows, cols, bandwidth));
  t.build_route_table();
  return t;
}

Topology Topology::snake(int rows, int cols, double bandwidth) {
  Topology t(TopologyKind::Snake, "snake", Grid(rows, cols, bandwidth));
  t.build_route_table();
  return t;
}

Topology Topology::torus(int rows, int cols, double bandwidth) {
  Topology t(TopologyKind::Torus, "torus", Grid(rows, cols, bandwidth));
  t.build_route_table();
  return t;
}

Topology Topology::hetero_mesh(int rows, int cols, double bandwidth,
                               double slow_scale) {
  if (slow_scale <= 0.0 || slow_scale > 1.0) {
    throw std::invalid_argument("Topology: slow_scale must be in (0, 1]");
  }
  Topology t(TopologyKind::HeteroMesh, "hetero", Grid(rows, cols, bandwidth));
  t.speed_scale_.resize(static_cast<std::size_t>(t.core_count()));
  for (int c = 0; c < t.core_count(); ++c) {
    const CoreId id = t.grid_.core_at(c);
    t.speed_scale_[static_cast<std::size_t>(c)] =
        ((id.row + id.col) % 2 == 0) ? 1.0 : slow_scale;
  }
  t.build_route_table();
  return t;
}

Topology Topology::make(const std::string& name, int rows, int cols,
                        double bandwidth) {
  if (name == "mesh") return mesh(rows, cols, bandwidth);
  if (name == "snake") return snake(rows, cols, bandwidth);
  if (name == "torus") return torus(rows, cols, bandwidth);
  if (name == "hetero") return hetero_mesh(rows, cols, bandwidth);
  throw TopologyError("unknown topology '" + name +
                      "' (expected mesh, snake, torus, hetero)");
}

const std::vector<std::string>& Topology::names() {
  static const std::vector<std::string> kNames = {"mesh", "snake", "torus",
                                                  "hetero"};
  return kNames;
}

bool Topology::has_link(CoreId c, Dir d) const noexcept {
  if (!grid_.contains(c)) return false;
  if (grid_.has_neighbor(c, d)) return true;
  if (kind_ != TopologyKind::Torus) return false;
  // Wrap-around links exist only when the dimension has at least two cores
  // (a 1-wide dimension would wrap onto itself).
  switch (d) {
    case Dir::North:
    case Dir::South: return grid_.rows() > 1;
    case Dir::West:
    case Dir::East: return grid_.cols() > 1;
  }
  return false;
}

CoreId Topology::link_target(CoreId c, Dir d) const noexcept {
  if (grid_.has_neighbor(c, d)) return grid_.neighbor(c, d);
  // Torus wrap: step off the edge and re-enter on the opposite side.
  switch (d) {
    case Dir::North: return CoreId{grid_.rows() - 1, c.col};
    case Dir::South: return CoreId{0, c.col};
    case Dir::West: return CoreId{c.row, grid_.cols() - 1};
    case Dir::East: return CoreId{c.row, 0};
  }
  return c;
}

int Topology::link_index(LinkId l) const {
  if (!has_link(l.from, l.dir)) {
    // Appended rather than operator+ chained: GCC 12's -Wrestrict
    // false-positives on literal + std::to_string concatenations at -O2.
    std::string msg = "Topology(";
    msg += name_;
    msg += "): no link out of core (";
    msg += std::to_string(l.from.row);
    msg += ',';
    msg += std::to_string(l.from.col);
    msg += ") toward ";
    msg += to_string(l.dir);
    throw std::out_of_range(msg);
  }
  return grid_.core_index(l.from) * 4 + static_cast<int>(l.dir);
}

std::span<const LinkId> Topology::route(int src_core, int dst_core) const noexcept {
  const auto p = static_cast<std::size_t>(src_core) *
                     static_cast<std::size_t>(core_count()) +
                 static_cast<std::size_t>(dst_core);
  return {route_pool_.data() + route_begin_[p],
          route_pool_.data() + route_begin_[p + 1]};
}

std::span<const int> Topology::route_links(int src_core, int dst_core) const noexcept {
  const auto p = static_cast<std::size_t>(src_core) *
                     static_cast<std::size_t>(core_count()) +
                 static_cast<std::size_t>(dst_core);
  return {route_link_pool_.data() + route_begin_[p],
          route_link_pool_.data() + route_begin_[p + 1]};
}

int Topology::distance(int src_core, int dst_core) const noexcept {
  const auto p = static_cast<std::size_t>(src_core) *
                     static_cast<std::size_t>(core_count()) +
                 static_cast<std::size_t>(dst_core);
  return static_cast<int>(route_begin_[p + 1] - route_begin_[p]);
}

namespace {

/// Steps from coordinate `from` forward to `to` around a ring of `size`.
int torus_offset(int from, int to, int size) noexcept {
  const int d = to - from;
  return d < 0 ? d + size : d;
}

}  // namespace

int Topology::hops(CoreId src, CoreId dst) const noexcept {
  switch (kind_) {
    case TopologyKind::Mesh:
    case TopologyKind::HeteroMesh: return grid_.manhattan(src, dst);
    case TopologyKind::Snake:
      return std::abs(grid_.snake_position(src) - grid_.snake_position(dst));
    case TopologyKind::Torus: {
      const int cols = grid_.cols(), rows = grid_.rows();
      const int east = torus_offset(src.col, dst.col, cols);
      const int south = torus_offset(src.row, dst.row, rows);
      return std::min(east, cols - east) + std::min(south, rows - south);
    }
  }
  return 0;
}

std::size_t Topology::write_route(CoreId src, CoreId dst, std::size_t at) {
  CoreId cur = src;
  // Each hop is written with its dense link index (link_index() without
  // the existence check: every hop below follows a link of this topology).
  const auto step = [&](Dir d) {
    route_pool_[at] = LinkId{cur, d};
    route_link_pool_[at] = grid_.core_index(cur) * 4 + static_cast<int>(d);
    ++at;
    cur = link_target(cur, d);
  };

  switch (kind_) {
    case TopologyKind::Mesh:
    case TopologyKind::HeteroMesh:
      while (cur.col != dst.col) step(cur.col < dst.col ? Dir::East : Dir::West);
      while (cur.row != dst.row) step(cur.row < dst.row ? Dir::South : Dir::North);
      break;
    case TopologyKind::Snake: {
      // Follow the boustrophedon embedding; backwards hops reverse the
      // forward hop's direction via opposite().
      const int a = grid_.snake_position(src);
      const int b = grid_.snake_position(dst);
      for (int k = a; k < b; ++k) {
        const CoreId nxt = grid_.snake_core(k + 1);
        step(nxt.row == cur.row ? (nxt.col > cur.col ? Dir::East : Dir::West)
                                : Dir::South);
      }
      for (int k = a; k > b; --k) {
        const CoreId prv = grid_.snake_core(k - 1);
        step(prv.row == cur.row
                 ? opposite(prv.col < cur.col ? Dir::East : Dir::West)
                 : opposite(Dir::South));
      }
      break;
    }
    case TopologyKind::Torus: {
      // Per dimension: the shorter way around, ties toward East/South.
      const int cols = grid_.cols(), rows = grid_.rows();
      const int east = torus_offset(cur.col, dst.col, cols);
      const Dir h = east <= cols - east ? Dir::East : Dir::West;
      const int hops_h = h == Dir::East ? east : cols - east;
      for (int k = 0; k < hops_h; ++k) step(h);
      const int south = torus_offset(cur.row, dst.row, rows);
      const Dir v = south <= rows - south ? Dir::South : Dir::North;
      const int hops_v = v == Dir::South ? south : rows - south;
      for (int k = 0; k < hops_v; ++k) step(v);
      break;
    }
  }
  assert(cur == dst);
  return at;
}

void Topology::build_route_table() {
  const int n = core_count();
  // Hop counts first, so both pools are sized once and exactly.
  route_begin_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n) + 1);
  std::size_t p = 0;
  std::uint32_t total = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d, ++p) {
      route_begin_[p] = total;
      total += static_cast<std::uint32_t>(hops(grid_.core_at(s), grid_.core_at(d)));
    }
  }
  route_begin_[p] = total;
  route_pool_.resize(total);
  route_link_pool_.resize(total);
  p = 0;
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d, ++p) {
      [[maybe_unused]] const std::size_t end =
          write_route(grid_.core_at(s), grid_.core_at(d), route_begin_[p]);
      assert(end == route_begin_[p + 1]);
    }
  }
}

Platform Platform::reference(int rows, int cols) {
  return Platform{Topology::mesh(rows, cols, 16.0 * 1.2e9), SpeedModel::xscale(),
                  CommModel{}};
}

Platform Platform::reference(const std::string& topology, int rows, int cols) {
  return Platform{Topology::make(topology, rows, cols, 16.0 * 1.2e9),
                  SpeedModel::xscale(), CommModel{}};
}

}  // namespace spgcmp::cmp
