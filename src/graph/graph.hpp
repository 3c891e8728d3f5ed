#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace hybrid::graph {

using NodeId = int;

/// An undirected graph whose nodes are embedded in the plane. Edge weights
/// default to the Euclidean length of the edge. Adjacency lists are kept
/// sorted and deduplicated on demand.
class GeometricGraph {
 public:
  GeometricGraph() = default;
  explicit GeometricGraph(std::vector<geom::Vec2> positions)
      : pos_(std::move(positions)), adj_(pos_.size()) {}
  /// Takes the adjacency lists as they are: they must be symmetric and
  /// free of duplicates and self-loops (what addEdge() would build).
  GeometricGraph(std::vector<geom::Vec2> positions, std::vector<std::vector<NodeId>> adjacency)
      : pos_(std::move(positions)), adj_(std::move(adjacency)) {}

  NodeId addNode(geom::Vec2 p) {
    pos_.push_back(p);
    adj_.emplace_back();
    return static_cast<NodeId>(pos_.size() - 1);
  }

  /// Adds the undirected edge {u, v}; duplicates are ignored.
  void addEdge(NodeId u, NodeId v);
  bool hasEdge(NodeId u, NodeId v) const;
  void removeEdge(NodeId u, NodeId v);

  std::size_t numNodes() const { return pos_.size(); }
  std::size_t numEdges() const;

  geom::Vec2 position(NodeId v) const { return pos_[static_cast<std::size_t>(v)]; }
  const std::vector<geom::Vec2>& positions() const { return pos_; }
  std::span<const NodeId> neighbors(NodeId v) const {
    return adj_[static_cast<std::size_t>(v)];
  }
  int degree(NodeId v) const { return static_cast<int>(adj_[static_cast<std::size_t>(v)].size()); }
  int maxDegree() const;

  double edgeLength(NodeId u, NodeId v) const { return geom::dist(position(u), position(v)); }

  /// All undirected edges as (u, v) pairs with u < v.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Total Euclidean length of a node path; +inf for an empty path.
  double pathLength(std::span<const NodeId> path) const;

  bool isConnected() const;
  /// Connected component label per node (labels are 0..k-1).
  std::vector<int> componentLabels(int* numComponents = nullptr) const;

  /// True if no two edges cross in their interiors (O(E^2); for tests).
  bool isPlanarEmbedding() const;

 private:
  std::vector<geom::Vec2> pos_;
  std::vector<std::vector<NodeId>> adj_;
};

}  // namespace hybrid::graph
