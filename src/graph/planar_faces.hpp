#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace hybrid::graph {

/// A face of a planar straight-line embedded graph, given as the cyclic
/// sequence of vertices along its boundary walk. For a connected planar
/// embedding, bounded faces are reported counter-clockwise and the single
/// unbounded (outer) face clockwise. Vertices can repeat along a walk when
/// the boundary passes through a cut vertex.
struct Face {
  std::vector<NodeId> cycle;
  double signedArea2 = 0.0;  ///< Twice the signed area of the boundary walk.
  bool outer = false;        ///< True for the unbounded face.
};

/// Flat half-edge structure of a planar straight-line embedding. Node u
/// owns the half-edges offsets[u] .. offsets[u+1]-1, one per neighbour, in
/// counter-clockwise order of their targets (the rotation). twin[h] is the
/// reverse of h, and face[h] indexes the face on the left of h in `faces`.
struct PlanarEmbedding {
  std::vector<std::int32_t> offsets;  ///< size numNodes()+1.
  std::vector<NodeId> target;         ///< Head of each half-edge.
  std::vector<std::int32_t> twin;
  std::vector<std::int32_t> face;
  std::vector<Face> faces;

  std::size_t numNodes() const { return offsets.empty() ? 0 : offsets.size() - 1; }

  /// The half-edge (u, v) by a scan of u's rotation; -1 if uv is no edge.
  int halfEdge(NodeId u, NodeId v) const;

  /// Face on the left of the directed edge (u, v); -1 if uv is no edge.
  int faceLeftOf(NodeId u, NodeId v) const {
    const int h = halfEdge(u, v);
    return h < 0 ? -1 : face[static_cast<std::size_t>(h)];
  }
};

/// Embeds `g` plus `extraEdges` and enumerates its faces. The extra edges
/// (absent from g, no two alike) extend the neighbour lists after g's own,
/// in order, as GeometricGraph::addEdge() would on a copy of g. Faces come
/// out in the order of their first half-edge (u, v), u ascending and v in
/// neighbour-list order; each cycle starts at that u. The graph must be a
/// planar straight-line embedding (no two edges crossing); otherwise the
/// faces are meaningless.
PlanarEmbedding embedPlanar(const GeometricGraph& g,
                            std::span<const std::pair<NodeId, NodeId>> extraEdges = {});

/// The faces of embedPlanar(g).
std::vector<Face> enumerateFaces(const GeometricGraph& g);

}  // namespace hybrid::graph
