#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/planar_faces.hpp"
#include "holes/hole_detection.hpp"

namespace hybrid::routing {

/// Planar subdivision of the LDel^2 graph augmented with the long convex
/// hull edges of V (so that every point inside the hull of V lies in a
/// bounded face). Faces are classified as walkable triangles (all three
/// edges are real communication edges) or hole faces (radio holes and
/// outer holes); corridor routing walks triangles and stops at hole faces.
///
/// The augmented embedding is not rebuilt here: hole detection already
/// embeds LDel^2 plus the long hull edges to find the outer holes, and the
/// HoleAnalysis shares that embedding (HullAugmentation). The subdivision
/// shares it too and reads faces, and the face on the left of a directed
/// edge, from its flat half-edge arrays; it adds only the
/// per-face classification, the faces around each node and the face
/// polygons. `analysis` must come from detectHoles(ldel, radius).
class PlanarSubdivision {
 public:
  /// Throws std::invalid_argument when `analysis` was not detected on a
  /// graph of ldel's size at this radius.
  PlanarSubdivision(const graph::GeometricGraph& ldel,
                    const holes::HoleAnalysis& analysis, double radius = 1.0);

  const std::vector<graph::Face>& faces() const { return aug_->embedding.faces; }

  /// Face on the left of the directed edge (u, v); -1 if uv is no edge.
  int faceLeftOf(graph::NodeId u, graph::NodeId v) const {
    return aug_->embedding.faceLeftOf(u, v);
  }

  /// Faces incident to a node, ascending.
  std::span<const int> facesOfNode(graph::NodeId v) const {
    const auto b = static_cast<std::size_t>(nodeFaceOffsets_[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(nodeFaceOffsets_[static_cast<std::size_t>(v) + 1]);
    return {nodeFaces_.data() + b, e - b};
  }

  bool isWalkable(int face) const { return walkable_[static_cast<std::size_t>(face)]; }
  bool isOuterFace(int face) const { return faces()[static_cast<std::size_t>(face)].outer; }

  /// Index into the hole analysis for a hole face; -1 otherwise.
  int holeOfFace(int face) const { return faceHole_[static_cast<std::size_t>(face)]; }

  /// The bounded face containing point p strictly in its interior, or -1.
  /// Linear scan; used for probes near a known node via facesOfNode.
  int boundedFaceContaining(geom::Vec2 p) const;

  /// Among the faces incident to `v`, the one whose interior contains `p`
  /// (p is expected to be a probe point just off `v`); -1 if none.
  int incidentFaceContaining(graph::NodeId v, geom::Vec2 p) const;

 private:
  std::shared_ptr<const holes::HullAugmentation> aug_;
  std::vector<std::int32_t> nodeFaceOffsets_;
  std::vector<int> nodeFaces_;
  std::vector<char> walkable_;
  std::vector<int> faceHole_;
  std::vector<geom::Polygon> facePolys_;
};

}  // namespace hybrid::routing
