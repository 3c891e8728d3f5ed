#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "geom/polygon.hpp"
#include "graph/graph.hpp"
#include "graph/planar_faces.hpp"

namespace hybrid::holes {

/// A radio hole of the 2-localized Delaunay graph.
///
/// Inner holes (paper Def. 2.4) are bounded faces with at least four nodes.
/// Outer holes (Def. 2.5) are faces of the graph augmented with the convex
/// hull of V that contain a hull edge longer than the unit radius.
/// The ring lists the boundary nodes counter-clockwise around the hole
/// interior, so the hole polygon has the hole region as its interior.
struct Hole {
  std::vector<graph::NodeId> ring;
  geom::Polygon polygon;
  bool outer = false;

  double perimeter() const { return polygon.perimeter(); }  ///< P(h)
};

/// The LDel^2 graph augmented with the convex hull edges of V longer than
/// the radius (Def. 2.5), embedded once: outer holes are read from its
/// faces, and the planar subdivision is built on it.
struct HullAugmentation {
  double radius = 1.0;
  /// Hull edges (a, b) longer than `radius` and absent from LDel^2, in
  /// hull order.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> longHullEdges;
  graph::PlanarEmbedding embedding;  ///< LDel^2 plus longHullEdges.
};

/// Result of the hole detection step.
struct HoleAnalysis {
  std::vector<Hole> holes;
  std::vector<graph::NodeId> outerBoundary;  ///< Outer face walk (clockwise).
  std::vector<char> isHoleNode;              ///< Per-node flag.
  std::vector<std::vector<int>> holesOfNode; ///< Hole indices per node.
  /// Shared so that copies of the analysis do not duplicate the embedding.
  std::shared_ptr<const HullAugmentation> augmented;

  /// Hole polygons, in hole order — the obstacle set for visibility tests.
  std::vector<geom::Polygon> holePolygons() const;
};

/// Detects all radio holes of a planar-embedded LDel^2 graph. `radius` is
/// the unit-disk radius used by the outer-hole rule (hull edges > radius).
HoleAnalysis detectHoles(const graph::GeometricGraph& ldel, double radius = 1.0);

}  // namespace hybrid::holes
