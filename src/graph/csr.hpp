#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"

namespace hybrid::graph {

/// Flat compressed-sparse-row adjacency with per-edge Euclidean weights.
///
/// The query engine's hot loops (repeated Dijkstra in DijkstraWorkspace,
/// the overlay's site-pair table) iterate neighbors millions of times;
/// the pointer-chasing std::vector<std::vector<NodeId>> layout of
/// GeometricGraph costs a cache miss per node. CSR packs all neighbor ids
/// and the matching edge lengths into two contiguous arrays indexed by a
/// node offset table, so a relaxation sweep is a linear scan.
struct CsrAdjacency {
  std::vector<std::int32_t> offsets;  ///< size numNodes()+1; offsets[v]..offsets[v+1].
  std::vector<NodeId> targets;        ///< size 2m, grouped by source node.
  std::vector<double> weights;        ///< Euclidean edge lengths, parallel to targets.

  std::size_t numNodes() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t numDirectedEdges() const { return targets.size(); }

  std::span<const NodeId> neighbors(NodeId v) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    return {targets.data() + b, e - b};
  }
  std::span<const double> edgeWeights(NodeId v) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    return {weights.data() + b, e - b};
  }
};

/// CSR snapshot of a GeometricGraph's adjacency (neighbor order preserved).
CsrAdjacency buildCsr(const GeometricGraph& g);

/// CSR from explicit adjacency lists over embedded points (the overlay's
/// site graph). adj[i] lists neighbor indices of point i; weights are the
/// Euclidean distances between the endpoints.
CsrAdjacency buildCsr(const std::vector<std::vector<int>>& adj,
                      const std::vector<geom::Vec2>& pos);

/// Rebuilds `out` in place (capacity reused) from an undirected edge list
/// over `pos`. Each node lists its neighbors in edge-list order, the order
/// GeometricGraph::addEdge() would give them; unlike addEdge(), repeated
/// edges and self-loops are kept, once per occurrence.
void buildCsr(std::span<const std::pair<NodeId, NodeId>> edges,
              const std::vector<geom::Vec2>& pos, CsrAdjacency& out);

}  // namespace hybrid::graph
