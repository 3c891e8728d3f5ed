#include "routing/subdivision.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "geom/polygon.hpp"

namespace hybrid::routing {

namespace {

// Canonical key of a face/hole cycle: the sorted node multiset.
std::vector<graph::NodeId> canonicalKey(std::vector<graph::NodeId> cycle) {
  std::sort(cycle.begin(), cycle.end());
  return cycle;
}

}  // namespace

PlanarSubdivision::PlanarSubdivision(const graph::GeometricGraph& ldel,
                                     const holes::HoleAnalysis& analysis,
                                     double radius)
    : aug_(analysis.augmented) {
  if (!aug_ || aug_->radius != radius || aug_->embedding.numNodes() != ldel.numNodes()) {
    throw std::invalid_argument(
        "PlanarSubdivision: the hole analysis was not detected on this graph at this radius");
  }
  const auto& emb = aug_->embedding;
  const auto& faces = emb.faces;
  walkable_.assign(faces.size(), 0);
  faceHole_.assign(faces.size(), -1);
  facePolys_.resize(faces.size());

  // A node lies on the faces to the left of its half-edges.
  nodeFaceOffsets_.assign(ldel.numNodes() + 1, 0);
  nodeFaces_.reserve(emb.face.size());
  for (std::size_t u = 0; u < ldel.numNodes(); ++u) {
    const auto begin = static_cast<std::ptrdiff_t>(nodeFaces_.size());
    nodeFaces_.insert(nodeFaces_.end(), emb.face.begin() + emb.offsets[u],
                      emb.face.begin() + emb.offsets[u + 1]);
    std::sort(nodeFaces_.begin() + begin, nodeFaces_.end());
    nodeFaces_.erase(std::unique(nodeFaces_.begin() + begin, nodeFaces_.end()),
                     nodeFaces_.end());
    nodeFaceOffsets_[u + 1] = static_cast<std::int32_t>(nodeFaces_.size());
  }

  // Holes by canonical key, sorted; on equal keys the later hole wins.
  std::vector<std::pair<std::vector<graph::NodeId>, int>> holeKeys;
  holeKeys.reserve(analysis.holes.size());
  for (std::size_t hi = 0; hi < analysis.holes.size(); ++hi) {
    holeKeys.emplace_back(canonicalKey(analysis.holes[hi].ring), static_cast<int>(hi));
  }
  std::sort(holeKeys.begin(), holeKeys.end());

  for (std::size_t fi = 0; fi < faces.size(); ++fi) {
    const auto& cycle = faces[fi].cycle;
    std::vector<geom::Vec2> pts;
    pts.reserve(cycle.size());
    for (graph::NodeId v : cycle) pts.push_back(ldel.position(v));
    facePolys_[fi] = geom::Polygon(std::move(pts));

    if (faces[fi].outer) continue;
    // A face is walkable iff it is a triangle of three distinct nodes whose
    // edges are all real communication edges, not long hull edges.
    if (cycle.size() == 3 && cycle[0] != cycle[1] && cycle[1] != cycle[2] &&
        cycle[0] != cycle[2] && ldel.hasEdge(cycle[0], cycle[1]) &&
        ldel.hasEdge(cycle[1], cycle[2]) && ldel.hasEdge(cycle[2], cycle[0])) {
      walkable_[fi] = 1;
    } else {
      const auto key = canonicalKey(cycle);
      const auto it = std::partition_point(
          holeKeys.begin(), holeKeys.end(), [&](const auto& e) { return e.first <= key; });
      if (it != holeKeys.begin() && std::prev(it)->first == key) {
        faceHole_[fi] = std::prev(it)->second;
      }
    }
  }
}

int PlanarSubdivision::boundedFaceContaining(geom::Vec2 p) const {
  const auto& faces = aug_->embedding.faces;
  for (std::size_t fi = 0; fi < faces.size(); ++fi) {
    if (faces[fi].outer) continue;
    if (facePolys_[fi].containsStrict(p)) return static_cast<int>(fi);
  }
  return -1;
}

int PlanarSubdivision::incidentFaceContaining(graph::NodeId v, geom::Vec2 p) const {
  for (int fi : facesOfNode(v)) {
    if (isOuterFace(fi)) continue;
    if (facePolys_[static_cast<std::size_t>(fi)].containsStrict(p)) return fi;
  }
  return -1;
}

}  // namespace hybrid::routing
