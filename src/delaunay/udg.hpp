#pragma once

#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"

namespace hybrid::delaunay {

/// Unit disk graph neighbour lists in one flat array: the neighbours of v
/// are nbrs[offsets[v], offsets[v + 1]), in buildUnitDiskGraph()'s order
/// (the lower ids ascending, then the higher ids in grid query order).
struct UdgLists {
  std::vector<int> offsets;
  std::vector<int> nbrs;

  std::span<const int> of(int v) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    return {nbrs.data() + b, e - b};
  }
};

/// The neighbour lists of buildUnitDiskGraph(points, radius).
UdgLists unitDiskLists(const std::vector<geom::Vec2>& points, double radius = 1.0);

/// The graph over `points` with the neighbour lists `lists`, in their order.
graph::GeometricGraph graphOf(const std::vector<geom::Vec2>& points, const UdgLists& lists);

/// Unit Disk Graph of `points`: bidirected edges between all pairs at
/// Euclidean distance <= `radius` (paper Definition 1.1, radius = 1).
/// Built with a uniform grid in O(n + output) expected time.
graph::GeometricGraph buildUnitDiskGraph(const std::vector<geom::Vec2>& points,
                                         double radius = 1.0);

}  // namespace hybrid::delaunay
