#include "delaunay/udg.hpp"

#include "spatial/grid_index.hpp"

namespace hybrid::delaunay {

UdgLists unitDiskLists(const std::vector<geom::Vec2>& points, double radius) {
  // Each pair {i, j}, i < j, is found once, by i's grid query. j lists i
  // among its lower neighbours, which come first because they are found
  // before j's own query runs.
  const std::size_t n = points.size();
  const spatial::GridIndex grid(points, radius);
  std::vector<int> upperStart(n + 1, 0);
  std::vector<int> upper;
  std::vector<int> degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int self = static_cast<int>(i);
    grid.forEachWithin(points[i], radius, [&](int j) {
      if (j <= self) return;
      upper.push_back(j);
      ++degree[static_cast<std::size_t>(j)];
    });
    upperStart[i + 1] = static_cast<int>(upper.size());
    degree[i] += upperStart[i + 1] - upperStart[i];
  }
  UdgLists lists;
  lists.offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) lists.offsets[v + 1] = lists.offsets[v] + degree[v];
  lists.nbrs.resize(static_cast<std::size_t>(lists.offsets[n]));
  std::vector<int> cursor(lists.offsets.begin(), lists.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = upperStart[i]; k < upperStart[i + 1]; ++k) {
      const int j = upper[static_cast<std::size_t>(k)];
      lists.nbrs[static_cast<std::size_t>(cursor[i]++)] = j;
      lists.nbrs[static_cast<std::size_t>(cursor[static_cast<std::size_t>(j)]++)] =
          static_cast<int>(i);
    }
  }
  return lists;
}

graph::GeometricGraph graphOf(const std::vector<geom::Vec2>& points, const UdgLists& lists) {
  std::vector<std::vector<graph::NodeId>> adj(points.size());
  for (std::size_t v = 0; v < adj.size(); ++v) {
    const auto nbrs = lists.of(static_cast<int>(v));
    adj[v].assign(nbrs.begin(), nbrs.end());
  }
  return graph::GeometricGraph(points, std::move(adj));
}

graph::GeometricGraph buildUnitDiskGraph(const std::vector<geom::Vec2>& points,
                                         double radius) {
  return graphOf(points, unitDiskLists(points, radius));
}

}  // namespace hybrid::delaunay
