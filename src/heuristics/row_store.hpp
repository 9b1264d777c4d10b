#pragma once

// DPA1D's table rows, stored as windows of the entries they hold.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace spgcmp::heuristics {

/// DP rows: entry k of row `id` is the least energy of state id's set on
/// exactly k+1 leading cores.  A row stores only the window of entries
/// written so far, [lo, lo + len); every entry outside it is infinite.
///
/// Rows are sized to what they hold, not to r.  A set of s stages has no
/// finite entry past `upper` = min(s, r) - 1, and its window grows by about
/// one entry per set size the forward pass expands, so a row starts in a
/// slot of kFirstSlot entries and, once its window outgrows that, moves to
/// a slot reaching `upper`; a slot left behind goes to a later row of its
/// size.  On the paper's 6x6 grid the rows of a completed DP hold ~10
/// finite entries of r = 36, and those of a DP that blows the expansion
/// budget rarely leave their first slot, so the grid's two largest tables
/// take ~3.2 and ~1.9 MB of entries where full-width rows took ~11 and
/// ~8 MB.  At full width, whether those two happened to run at the same
/// time decided a two-worker sweep's peak memory.
class RowStore {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Window {
    const double* entries;  // entry k at entries[k - lo]
    std::size_t lo, hi;     // the window is [lo, hi)
  };

  explicit RowStore(std::size_t r)
      : block_(std::max<std::size_t>(kMinBlock, r)), free_(r + 1) {}

  /// Append an all-infinite row; its id is the previous size().
  void push() { rows_.push_back({}); }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  [[nodiscard]] double at(std::uint32_t id, std::size_t k) const noexcept {
    const Row& w = rows_[id];
    return k >= w.lo && k - w.lo < w.len ? w.slot[k - w.lo] : kInf;
  }
  [[nodiscard]] Window window(std::uint32_t id) const noexcept {
    const Row& w = rows_[id];
    return {w.slot, w.lo, w.lo + w.len};
  }

  /// Widen row id's window to cover entries [first, last], the new entries
  /// infinite, and return a pointer to entry `first`.  `upper` bounds every
  /// entry the row will ever cover.
  double* cover(std::uint32_t id, std::size_t first, std::size_t last, std::size_t upper) {
    Row& w = rows_[id];
    if (w.len != 0 && first >= w.lo && last < w.lo + w.len) return w.slot + (first - w.lo);
    assert(first <= last && last <= upper);
    const std::size_t lo = w.len == 0 ? first : std::min<std::size_t>(w.lo, first);
    const std::size_t hi = w.len == 0 ? last + 1 : std::max<std::size_t>(w.lo + w.len, last + 1);
    const std::size_t shift = w.len == 0 ? 0 : w.lo - lo;
    if (hi - lo > w.cap) {
      const std::size_t cap =
          w.len == 0 ? std::min(std::max(hi - lo, kFirstSlot), upper + 1 - lo) : upper + 1 - lo;
      double* slot = take(cap);
      std::copy_n(w.slot, w.len, slot + shift);
      if (w.cap != 0) free_[w.cap].push_back(w.slot);
      w.slot = slot;
      w.cap = static_cast<std::uint32_t>(cap);
    } else if (shift != 0) {
      std::copy_backward(w.slot, w.slot + w.len, w.slot + shift + w.len);
    }
    std::fill_n(w.slot, shift, kInf);
    std::fill(w.slot + shift + w.len, w.slot + (hi - lo), kInf);
    w.lo = static_cast<std::uint32_t>(lo);
    w.len = static_cast<std::uint32_t>(hi - lo);
    return w.slot + (first - lo);
  }

 private:
  struct Row {
    double* slot = nullptr;
    std::uint32_t lo = 0, len = 0, cap = 0;
  };
  static constexpr std::size_t kFirstSlot = 8;
  static constexpr std::size_t kMinBlock = 4096;

  /// A slot of `cap` entries: a recycled one of that size, else fresh.
  double* take(std::size_t cap) {
    auto& recycled = free_[cap];
    if (!recycled.empty()) {
      double* slot = recycled.back();
      recycled.pop_back();
      return slot;
    }
    if (blocks_.empty() || used_ + cap > block_) {
      blocks_.push_back(std::unique_ptr<double[]>(new double[block_]));
      used_ = 0;
    }
    double* slot = blocks_.back().get() + used_;
    used_ += cap;
    return slot;
  }

  std::size_t block_;  // entries per block, at least one slot of r entries
  std::size_t used_ = 0;
  std::vector<std::unique_ptr<double[]>> blocks_;
  std::vector<std::vector<double*>> free_;  // slots left behind, by size
  std::vector<Row> rows_;
};

}  // namespace spgcmp::heuristics
