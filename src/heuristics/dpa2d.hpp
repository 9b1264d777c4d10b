#pragma once

// DPA2D and DPA2D1D — Sections 5.3 and 5.4.
//
// DPA2D first lays the SPG on its virtual xmax x ymax label grid, then runs
// a double nested dynamic program: the outer DP cuts the x-range into
// vertical blocks mapped onto CMP columns; the inner DP cuts the y-range of
// one block into groups mapped onto the cores of that column.  Every state
// carries the distribution D of outgoing communications (source row, bytes,
// destination stage); horizontal legs stay on the source core's row until
// the destination column and vertical legs are charged link-by-link as the
// inner DP sweeps rows — i.e. the cost model is exactly XY routing, which
// is also how the final mapping is routed and re-validated.
//
// DPA2D1D runs the same machinery on a virtual 1 x (p*q) platform and then
// embeds the resulting line of clusters along the snake walk of the real
// grid (Section 5.4).
//
// Cluster validity inside the DP uses the convexity filter (no path between
// two box stages may leave the box); with x-monotone edges a path can only
// escape a box *vertically*, so per-block "bad (y1,y2)" tables are built
// from precomputed escaping pairs, for O(1) lookups per DP transition.
//
// The outer DP runs in (m, mp, v) order, so each block [mp, m-1] builds its
// bad table and in-block crossing arrays once, in the outer loop, and
// shares them across every CMP column v and incoming distribution it is
// solved for.  A one-row column (P == 1: DPA2D1D's line) builds neither,
// and no escaping pairs: its only core row takes the full-height box, which
// no path can escape, and the crossing arrays price only the links between
// core rows.
//
// Work is reported on one "dpa2d.dp" trace span per solve: `blocks` (blocks
// set up, i.e. reached from a finite state; empty set-ups when P == 1),
// `columns` (inner-DP runs), `states` (finite outer states) and `outcome`
// (ok, infeasible, internal).  `blocks` and `columns` include the
// reconstruction's re-solve of each chosen block, whose energies must
// re-add to the DP's optimum exactly, or the solve fails as internal.

#include "heuristics/heuristic.hpp"

namespace spgcmp::heuristics {

class Dpa2dHeuristic final : public Heuristic {
 public:
  enum class Mode {
    Grid2D,  ///< paper's DPA2D: blocks onto grid columns, rows within
    Line1D,  ///< paper's DPA2D1D: 1 x (p*q) virtual line, snake embedding
  };

  explicit Dpa2dHeuristic(Mode mode = Mode::Grid2D) : mode_(mode) {}

  [[nodiscard]] std::string name() const override {
    return mode_ == Mode::Grid2D ? "DPA2D" : "DPA2D1D";
  }
  [[nodiscard]] Result run(const spg::Spg& g, const cmp::Platform& p,
                           double T) const override;

 private:
  Mode mode_;
};

}  // namespace spgcmp::heuristics
