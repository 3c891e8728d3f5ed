#include "spatial/grid_index.hpp"

#include <algorithm>
#include <utility>

namespace hybrid::spatial {

GridIndex::GridIndex(const std::vector<geom::Vec2>& points, double cellSize)
    : cell_(cellSize > 0.0 ? cellSize : 1.0) {
  std::vector<std::pair<std::int64_t, int>> byCell(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    byCell[i] = {packCell(cellCoord(points[i].x), cellCoord(points[i].y)), static_cast<int>(i)};
  }
  std::sort(byCell.begin(), byCell.end());
  items_.reserve(byCell.size());
  itemPos_.reserve(byCell.size());
  for (const auto& [key, i] : byCell) {
    if (keys_.empty() || keys_.back() != key) {
      keys_.push_back(key);
      start_.push_back(static_cast<int>(items_.size()));
    }
    items_.push_back(i);
    itemPos_.push_back(points[static_cast<std::size_t>(i)]);
  }
  start_.push_back(static_cast<int>(items_.size()));
}

std::int64_t GridIndex::cellCoord(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_));
}

std::size_t GridIndex::lowerCell(std::int64_t key, std::size_t from) const {
  if (from > 0 && keys_[from - 1] >= key) from = 0;
  // The next cell of a column is usually a step or two away.
  for (int probe = 0; probe < 4; ++probe, ++from) {
    if (from == keys_.size() || keys_[from] >= key) return from;
  }
  return static_cast<std::size_t>(
      std::lower_bound(keys_.begin() + static_cast<std::ptrdiff_t>(from), keys_.end(), key) -
      keys_.begin());
}

std::vector<int> GridIndex::queryRadius(geom::Vec2 center, double radius) const {
  std::vector<int> out;
  forEachWithin(center, radius, [&](int i) { out.push_back(i); });
  return out;
}

}  // namespace hybrid::spatial
