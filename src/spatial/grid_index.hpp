#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"

namespace hybrid::spatial {

/// Uniform grid over the plane for fixed-radius neighbor queries.
/// With cell size equal to the query radius, a radius query inspects at
/// most 9 cells, giving expected O(1 + output) time for bounded densities.
///
/// The occupied cells are kept flat: their keys sorted ascending, and the
/// point ids of cell c in items_[start_[c], start_[c + 1]), ascending,
/// with a copy of their positions alongside, so a query reads memory in
/// order and the grid keeps no reference to the caller's points. A query
/// visits the cells column by column (x offset outer, y offset inner) and
/// each cell's points in id order, so its result order depends only on
/// the points.
class GridIndex {
 public:
  GridIndex(const std::vector<geom::Vec2>& points, double cellSize);

  /// Indices of all points within `radius` of `center` (inclusive).
  std::vector<int> queryRadius(geom::Vec2 center, double radius) const;

  /// Calls fn(j) for every point j > `after` within `radius` of `center`,
  /// in queryRadius() order, without allocating.
  template <typename F>
  void forEachWithin(geom::Vec2 center, double radius, F&& fn, int after = -1) const;

 private:
  static std::int64_t packCell(std::int64_t cx, std::int64_t cy) {
    // Interleave-free packing: 32 bits per axis, biased to stay positive.
    return ((cx + 0x40000000LL) << 32) | ((cy + 0x40000000LL) & 0xFFFFFFFFLL);
  }
  std::int64_t cellCoord(double v) const;
  /// First cell whose key is >= `key`. The search starts at `from`
  /// unless a key before it is already >= `key`.
  std::size_t lowerCell(std::int64_t key, std::size_t from) const;

  double cell_;
  std::vector<std::int64_t> keys_;
  std::vector<int> start_;
  std::vector<int> items_;
  std::vector<geom::Vec2> itemPos_;
};

template <typename F>
void GridIndex::forEachWithin(geom::Vec2 center, double radius, F&& fn, int after) const {
  const double r2 = radius * radius;
  const std::int64_t cx = cellCoord(center.x);
  const std::int64_t cy = cellCoord(center.y);
  const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
  auto scanCell = [&](std::size_t cell) {
    const int* const ids = items_.data();
    // Ids ascend within a cell: skip those <= after.
    const int* first = ids + start_[cell];
    const int* const last = ids + start_[cell + 1];
    if (after >= 0) first = std::upper_bound(first, last, after);
    for (; first != last; ++first) {
      const std::size_t k = static_cast<std::size_t>(first - ids);
      if (geom::dist2(itemPos_[k], center) <= r2) fn(*first);
    }
  };
  std::size_t c = 0;
  for (std::int64_t dx = -reach; dx <= reach; ++dx) {
    const std::int64_t lo = packCell(cx + dx, cy - reach);
    const std::int64_t hi = packCell(cx + dx, cy + reach);
    if (lo <= hi) {
      // The column's cells have the consecutive keys lo..hi, in y order.
      // Keys also ascend from one column to the next, so the lookup
      // resumes at c.
      for (c = lowerCell(lo, c); c < keys_.size() && keys_[c] <= hi; ++c) scanCell(c);
      continue;
    }
    // The y half of the key wrapped: look the cells up one by one.
    for (std::int64_t dy = -reach; dy <= reach; ++dy) {
      const std::int64_t key = packCell(cx + dx, cy + dy);
      const std::size_t k = lowerCell(key, 0);
      if (k < keys_.size() && keys_[k] == key) scanCell(k);
    }
  }
}

}  // namespace hybrid::spatial
