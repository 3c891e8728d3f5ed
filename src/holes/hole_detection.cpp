#include "holes/hole_detection.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hybrid::holes {

namespace {

geom::Polygon ringPolygon(const graph::GeometricGraph& g,
                          const std::vector<graph::NodeId>& ring) {
  std::vector<geom::Vec2> pts;
  pts.reserve(ring.size());
  for (graph::NodeId v : ring) pts.push_back(g.position(v));
  return geom::Polygon(std::move(pts));
}

// Distinct nodes of a face walk; `mark` holds a per-node stamp, all
// different from `stamp` on entry.
std::size_t distinctCount(const std::vector<graph::NodeId>& ring, std::vector<int>& mark,
                          int stamp) {
  std::size_t count = 0;
  for (graph::NodeId v : ring) {
    int& m = mark[static_cast<std::size_t>(v)];
    if (m != stamp) {
      m = stamp;
      ++count;
    }
  }
  return count;
}

}  // namespace

std::vector<geom::Polygon> HoleAnalysis::holePolygons() const {
  std::vector<geom::Polygon> out;
  out.reserve(holes.size());
  for (const Hole& h : holes) out.push_back(h.polygon);
  return out;
}

HoleAnalysis detectHoles(const graph::GeometricGraph& ldel, double radius) {
  HoleAnalysis out;
  out.isHoleNode.assign(ldel.numNodes(), 0);
  out.holesOfNode.assign(ldel.numNodes(), {});
  std::vector<int> mark(ldel.numNodes(), -1);
  int stamp = 0;

  // Inner holes: bounded faces with >= 4 distinct nodes.
  graph::PlanarEmbedding plain = graph::embedPlanar(ldel);
  for (const auto& f : plain.faces) {
    if (f.outer) {
      // The outer face of the (connected) LDel graph: keep the largest walk
      // in case isolated components produce several outer walks.
      if (f.cycle.size() > out.outerBoundary.size()) out.outerBoundary = f.cycle;
      continue;
    }
    if (f.cycle.size() < 4 || distinctCount(f.cycle, mark, stamp++) < 4) continue;
    Hole h;
    h.ring = f.cycle;
    h.polygon = ringPolygon(ldel, h.ring);
    h.outer = false;
    out.holes.push_back(std::move(h));
  }

  // Outer holes: augment with the convex hull of V and look for bounded
  // faces that use a hull edge longer than the radius.
  auto aug = std::make_shared<HullAugmentation>();
  aug->radius = radius;
  auto& longHullEdges = aug->longHullEdges;
  const auto hullIdx = geom::convexHullIndices(ldel.positions());
  for (std::size_t i = 0; i < hullIdx.size(); ++i) {
    const graph::NodeId a = hullIdx[i];
    const graph::NodeId b = hullIdx[(i + 1) % hullIdx.size()];
    // A two-point hull lists its one edge twice.
    if (ldel.edgeLength(a, b) > radius && !ldel.hasEdge(a, b) &&
        std::find(longHullEdges.begin(), longHullEdges.end(), std::pair{b, a}) ==
            longHullEdges.end()) {
      longHullEdges.emplace_back(a, b);
    }
  }
  if (longHullEdges.empty()) {
    aug->embedding = std::move(plain);
  } else {
    aug->embedding = graph::embedPlanar(ldel, longHullEdges);
    const auto& emb = aug->embedding;
    std::vector<char> usesLongHullEdge(emb.faces.size(), 0);
    const auto markFaceLeftOf = [&](graph::NodeId u, graph::NodeId v) {
      const int f = emb.faceLeftOf(u, v);
      if (f < 0) {
        throw std::logic_error("detectHoles: long hull edge (" + std::to_string(u) + ", " +
                               std::to_string(v) + ") is not an edge of the augmented "
                               "embedding");
      }
      usesLongHullEdge[static_cast<std::size_t>(f)] = 1;
    };
    for (const auto& [a, b] : longHullEdges) {
      markFaceLeftOf(a, b);
      markFaceLeftOf(b, a);
    }
    for (std::size_t fi = 0; fi < emb.faces.size(); ++fi) {
      const auto& f = emb.faces[fi];
      if (f.outer || !usesLongHullEdge[fi] || distinctCount(f.cycle, mark, stamp++) < 3) {
        continue;
      }
      Hole h;
      h.ring = f.cycle;
      h.polygon = ringPolygon(ldel, h.ring);
      h.outer = true;
      out.holes.push_back(std::move(h));
    }
  }
  out.augmented = std::move(aug);

  for (std::size_t hi = 0; hi < out.holes.size(); ++hi) {
    for (graph::NodeId v : out.holes[hi].ring) {
      out.isHoleNode[static_cast<std::size_t>(v)] = 1;
      auto& list = out.holesOfNode[static_cast<std::size_t>(v)];
      if (list.empty() || list.back() != static_cast<int>(hi)) {
        list.push_back(static_cast<int>(hi));
      }
    }
  }
  return out;
}

}  // namespace hybrid::holes
