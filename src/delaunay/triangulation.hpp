#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"

namespace hybrid::delaunay {

/// A triangle of the triangulation. Vertices are indices into the point
/// array, in counter-clockwise order; `adj[i]` is the index of the triangle
/// sharing the edge opposite vertex i (-1 on the boundary).
struct Triangle {
  std::array<int, 3> v{-1, -1, -1};
  std::array<int, 3> adj{-1, -1, -1};
};

namespace detail {

/// Working state of the incremental (Bowyer–Watson) builder. Held by value
/// so a state can be copied (DelaunayPrefix keeps one) and its vectors
/// reused across builds (TriangulationWorkspace); callers treat it as
/// opaque.
struct BuildState {
  /// Working triangle with liveness flag; vertex order is ccw, adj[i]
  /// faces the edge opposite vertex i. `edited` is cleared in a snapshot
  /// and set whenever an insert or a flip changes the triangle, so a
  /// triangle that is not edited still equals its snapshot copy.
  struct WorkTri {
    std::array<int, 3> v;
    std::array<int, 3> adj;
    bool alive = true;
    bool edited = true;
  };
  /// A cavity boundary edge (a, b), cavity on the left, and the outside
  /// triangle across it.
  struct BEdge {
    int a, b, outside;
  };

  /// Input points, then the three super-triangle corners at superBase..+2,
  /// then any points inserted after a snapshot.
  std::vector<geom::Vec2> pts;
  std::vector<WorkTri> tris;
  int superBase = -1;
  int lastAlive = 0;

  // Insert scratch, owned by the state so inserts do not allocate once the
  // vectors have grown. Stamped entries are valid only for the insert whose
  // stamp they carry.
  std::vector<int> badStamp;  ///< Per triangle: stamp when in the cavity.
  std::vector<int> bad;
  std::vector<int> stack;
  std::vector<BEdge> boundary;
  /// Per vertex: {stamp, fan triangle} whose boundary edge starts (startOf)
  /// or ends (endOf) at the vertex.
  std::vector<std::array<int, 2>> startOf;
  std::vector<std::array<int, 2>> endOf;
};

}  // namespace detail

/// Delaunay triangulation of a planar point set, built incrementally
/// (Bowyer–Watson) with robust predicates and walking point location.
/// The input set must contain no duplicate points.
class DelaunayTriangulation {
 public:
  /// Builds the triangulation of `points` (empty and 1-point sets allowed).
  explicit DelaunayTriangulation(const std::vector<geom::Vec2>& points);

  const std::vector<geom::Vec2>& points() const { return pts_; }

  /// All finite triangles (super-triangle remnants removed), ccw.
  const std::vector<Triangle>& triangles() const { return tris_; }

  /// All Delaunay edges as (u, v) pairs with u < v (indices into points()).
  std::vector<std::pair<int, int>> edges() const;

  /// The triangulation as a geometric graph over the input points.
  graph::GeometricGraph toGraph() const;

  /// True if the edge {u, v} is a Delaunay edge.
  bool hasEdge(int u, int v) const;

 private:
  std::vector<geom::Vec2> pts_;
  std::vector<Triangle> tris_;
};

/// Reusable scratch for DelaunayPrefix::triangulate(). Once its vectors
/// have grown, triangulating through it performs no heap allocation. One
/// workspace must not be shared between concurrent triangulations.
class TriangulationWorkspace {
 public:
  /// Finite triangles of the last triangulation, exactly as
  /// DelaunayTriangulation::triangles() lists them for the same points.
  const std::vector<Triangle>& triangles() const { return tris_; }
  /// Its edges, exactly as DelaunayTriangulation::edges() lists them.
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

 private:
  friend class DelaunayPrefix;
  detail::BuildState state_;
  std::vector<int> remap_;
  std::vector<Triangle> tris_;
  std::vector<int> edgeOffsets_;
  std::vector<std::pair<int, int>> edges_;
};

/// The Delaunay triangulation of a fixed site set, kept as a resumable
/// snapshot for triangulating the sites plus a few extra points.
///
/// The builder inserts points in input order and legalizes once at the
/// end, and its super-triangle depends only on the points' bounding box.
/// So for points = sites followed by extras that lie in the sites' closed
/// bounding box, the builder state after the sites is the same for every
/// set of extras. The prefix keeps that state (before legalization):
/// triangulate() copies it, inserts the extras, legalizes and finishes,
/// which is the same builder running the same predicates on the same
/// state as a fresh DelaunayTriangulation(sites + extras), so triangles()
/// and edges() are identical. The super-triangle corners keep the indices
/// h..h+2 of the snapshot and the extras are relabelled to h, h+1, ... on
/// output. An extra outside the box would change the super-triangle, so
/// then the build starts from empty, exactly as a fresh triangulation.
///
/// Legalization reuses the snapshot's flip verdicts: the prefix records,
/// while legalizing its own copy into DT(sites), the inCircle outcome of
/// every (triangle, edge) whose triangle and neighbour were still in their
/// snapshot state. A resumed legalization reads a verdict only when both
/// triangles are still unedited, so the scan order and the flips are
/// unchanged.
class DelaunayPrefix {
 public:
  DelaunayPrefix() = default;
  explicit DelaunayPrefix(const std::vector<geom::Vec2>& sites);

  /// The triangles of DelaunayTriangulation(sites).
  const std::vector<Triangle>& siteTriangles() const { return siteTris_; }
  /// The edges of DelaunayTriangulation(sites).
  const std::vector<std::pair<int, int>>& siteEdges() const { return siteEdges_; }

  /// True when a triangulation with `p` among the extras can resume from
  /// the snapshot: there are at least 3 sites and p lies in their closed
  /// bounding box.
  bool covers(geom::Vec2 p) const { return resumable_ && box_.contains(p); }

  /// Triangulates the sites followed by `extras` (indices h, h+1, ...)
  /// into `ws`. The extras must be distinct from the sites and from each
  /// other. Returns true when the build resumed from the snapshot, false
  /// when it started from empty because an extra lies outside covers().
  bool triangulate(std::span<const geom::Vec2> extras, TriangulationWorkspace& ws) const;

 private:
  std::vector<geom::Vec2> sites_;
  geom::BBox box_;
  bool resumable_ = false;
  detail::BuildState snapshot_;
  /// Per snapshot (triangle, edge), 3 * t + i: -1 unknown, 0 keep, 1 flip.
  std::vector<signed char> verdicts_;
  std::vector<Triangle> siteTris_;
  std::vector<std::pair<int, int>> siteEdges_;
};

}  // namespace hybrid::delaunay
