#include "cmp/cmp.hpp"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace spgcmp::cmp {

Grid::Grid(int rows, int cols, double bandwidth_bytes_per_s)
    : rows_(rows), cols_(cols), bandwidth_(bandwidth_bytes_per_s) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("Grid: need >= 1x1");
  if (bandwidth_ <= 0) throw std::invalid_argument("Grid: bandwidth must be > 0");
}

int Grid::link_index(LinkId l) const {
  if (!contains(l.from) || !has_neighbor(l.from, l.dir)) {
    throw std::out_of_range("Grid::link_index: invalid link");
  }
  return core_index(l.from) * 4 + static_cast<int>(l.dir);
}

std::vector<LinkId> Grid::xy_route(CoreId src, CoreId dst) const {
  assert(contains(src) && contains(dst));
  std::vector<LinkId> path;
  path.reserve(static_cast<std::size_t>(manhattan(src, dst)));
  CoreId cur = src;
  while (cur.col != dst.col) {
    const Dir d = cur.col < dst.col ? Dir::East : Dir::West;
    path.push_back(LinkId{cur, d});
    cur = neighbor(cur, d);
  }
  while (cur.row != dst.row) {
    const Dir d = cur.row < dst.row ? Dir::South : Dir::North;
    path.push_back(LinkId{cur, d});
    cur = neighbor(cur, d);
  }
  return path;
}

CoreId Grid::snake_core(int k) const {
  if (k < 0 || k >= core_count()) throw std::out_of_range("snake_core");
  const int row = k / cols_;
  const int offset = k % cols_;
  const int col = (row % 2 == 0) ? offset : cols_ - 1 - offset;
  return CoreId{row, col};
}

int Grid::snake_position(CoreId c) const noexcept {
  const int offset = (c.row % 2 == 0) ? c.col : cols_ - 1 - c.col;
  return c.row * cols_ + offset;
}

std::vector<LinkId> Grid::snake_route(CoreId src, CoreId dst) const {
  const int a = snake_position(src);
  const int b = snake_position(dst);
  if (a > b) throw std::invalid_argument("snake_route: src after dst in snake order");
  std::vector<LinkId> path;
  path.reserve(static_cast<std::size_t>(b - a));
  for (int k = a; k < b; ++k) {
    const CoreId cur = snake_core(k);
    const CoreId nxt = snake_core(k + 1);
    Dir d;
    if (nxt.row == cur.row) {
      d = nxt.col > cur.col ? Dir::East : Dir::West;
    } else {
      d = Dir::South;
    }
    path.push_back(LinkId{cur, d});
  }
  return path;
}

int Grid::manhattan(CoreId a, CoreId b) const noexcept {
  return std::abs(a.row - b.row) + std::abs(a.col - b.col);
}

SpeedModel SpeedModel::xscale() {
  return SpeedModel({0.15e9, 0.4e9, 0.6e9, 0.8e9, 1.0e9},
                    {0.080, 0.170, 0.400, 0.900, 1.600}, 0.080);
}

SpeedModel::SpeedModel(std::vector<double> speeds_hz, std::vector<double> dynamic_w,
                       double leak_w)
    : speeds_(std::move(speeds_hz)), dynamic_(std::move(dynamic_w)), leak_(leak_w) {
  if (speeds_.empty() || speeds_.size() != dynamic_.size()) {
    throw std::invalid_argument("SpeedModel: speed/power arity mismatch");
  }
  for (std::size_t k = 1; k < speeds_.size(); ++k) {
    if (speeds_[k] <= speeds_[k - 1]) {
      throw std::invalid_argument("SpeedModel: speeds must be increasing");
    }
  }
}

std::size_t SpeedModel::slowest_feasible(double work, double period) const {
  for (std::size_t k = 0; k < speeds_.size(); ++k) {
    if (work <= period * speeds_[k]) return k;
  }
  return speeds_.size();
}

double SpeedModel::core_energy(double work, std::size_t k, double period) const {
  assert(k < speeds_.size());
  return leak_ * period + (work / speeds_[k]) * dynamic_[k];
}

}  // namespace spgcmp::cmp
