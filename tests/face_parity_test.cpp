// Parity of the flat half-edge face walk (graph::embedPlanar) with a
// replica of the std::map walk it replaced: the replica is the reference
// for faces, hole detection and the subdivision's face-of-edge lookup.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "delaunay/ldel.hpp"
#include "geom/angle.hpp"
#include "geom/polygon.hpp"
#include "graph/planar_faces.hpp"
#include "holes/hole_detection.hpp"
#include "routing/subdivision.hpp"
#include "testkit/generators.hpp"

namespace hybrid {
namespace {

using graph::Face;
using graph::GeometricGraph;
using graph::NodeId;

// --- Reference: the std::map face walk -----------------------------------

std::vector<Face> referenceFaces(const GeometricGraph& g) {
  std::vector<std::vector<NodeId>> sorted(g.numNodes());
  for (NodeId u = 0; u < static_cast<NodeId>(g.numNodes()); ++u) {
    auto nbrs = g.neighbors(u);
    std::vector<NodeId> s(nbrs.begin(), nbrs.end());
    const geom::Vec2 pu = g.position(u);
    std::sort(s.begin(), s.end(), [&](NodeId a, NodeId b) {
      return geom::directionAngle(pu, g.position(a)) <
             geom::directionAngle(pu, g.position(b));
    });
    sorted[static_cast<std::size_t>(u)] = std::move(s);
  }
  std::map<std::pair<NodeId, NodeId>, int> slot;
  for (NodeId u = 0; u < static_cast<NodeId>(g.numNodes()); ++u) {
    const auto& s = sorted[static_cast<std::size_t>(u)];
    for (int i = 0; i < static_cast<int>(s.size()); ++i) slot[{u, s[i]}] = i;
  }
  std::map<std::pair<NodeId, NodeId>, bool> used;
  std::vector<Face> faces;
  for (NodeId u = 0; u < static_cast<NodeId>(g.numNodes()); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (used[{u, v}]) continue;
      Face f;
      NodeId a = u;
      NodeId b = v;
      while (!used[{a, b}]) {
        used[{a, b}] = true;
        f.cycle.push_back(a);
        const auto& s = sorted[static_cast<std::size_t>(b)];
        const int idx = slot.at({b, a});
        const int next = (idx - 1 + static_cast<int>(s.size())) % static_cast<int>(s.size());
        a = b;
        b = s[static_cast<std::size_t>(next)];
      }
      double area2 = 0.0;
      for (std::size_t i = 0; i < f.cycle.size(); ++i) {
        const geom::Vec2 p = g.position(f.cycle[i]);
        const geom::Vec2 q = g.position(f.cycle[(i + 1) % f.cycle.size()]);
        area2 += p.cross(q);
      }
      f.signedArea2 = area2;
      f.outer = area2 < 0.0;
      faces.push_back(std::move(f));
    }
  }
  return faces;
}

std::size_t distinctCount(const std::vector<NodeId>& ring) {
  return std::set<NodeId>(ring.begin(), ring.end()).size();
}

struct ReferenceHoles {
  std::vector<std::vector<NodeId>> rings;
  std::vector<bool> outer;
  std::vector<NodeId> outerBoundary;
  std::vector<std::vector<int>> holesOfNode;
  GeometricGraph augmented;
  std::set<std::pair<NodeId, NodeId>> synthetic;
};

ReferenceHoles referenceDetectHoles(const GeometricGraph& ldel, double radius) {
  ReferenceHoles out;
  for (const auto& f : referenceFaces(ldel)) {
    if (f.outer) {
      if (f.cycle.size() > out.outerBoundary.size()) out.outerBoundary = f.cycle;
      continue;
    }
    if (distinctCount(f.cycle) < 4) continue;
    out.rings.push_back(f.cycle);
    out.outer.push_back(false);
  }
  const auto hullIdx = geom::convexHullIndices(ldel.positions());
  out.augmented = ldel;
  for (std::size_t i = 0; i < hullIdx.size(); ++i) {
    const NodeId a = hullIdx[i];
    const NodeId b = hullIdx[(i + 1) % hullIdx.size()];
    if (out.augmented.edgeLength(a, b) > radius && !out.augmented.hasEdge(a, b)) {
      out.augmented.addEdge(a, b);
      out.synthetic.insert({std::min(a, b), std::max(a, b)});
    }
  }
  if (!out.synthetic.empty()) {
    for (const auto& f : referenceFaces(out.augmented)) {
      if (f.outer || distinctCount(f.cycle) < 3) continue;
      bool usesLongHullEdge = false;
      for (std::size_t i = 0; i < f.cycle.size(); ++i) {
        NodeId a = f.cycle[i];
        NodeId b = f.cycle[(i + 1) % f.cycle.size()];
        if (a > b) std::swap(a, b);
        usesLongHullEdge = usesLongHullEdge || out.synthetic.contains({a, b});
      }
      if (!usesLongHullEdge) continue;
      out.rings.push_back(f.cycle);
      out.outer.push_back(true);
    }
  }
  out.holesOfNode.assign(ldel.numNodes(), {});
  for (std::size_t hi = 0; hi < out.rings.size(); ++hi) {
    for (NodeId v : out.rings[hi]) {
      auto& list = out.holesOfNode[static_cast<std::size_t>(v)];
      if (list.empty() || list.back() != static_cast<int>(hi)) list.push_back(static_cast<int>(hi));
    }
  }
  return out;
}

// --- Checks ---------------------------------------------------------------

void expectSameFaces(const std::vector<Face>& got, const std::vector<Face>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].cycle, want[i].cycle) << what << " face " << i;
    EXPECT_EQ(got[i].signedArea2, want[i].signedArea2) << what << " face " << i;
    EXPECT_EQ(got[i].outer, want[i].outer) << what << " face " << i;
  }
}

// Hole kinds seen by expectParity(), so the cases can show they reach both.
struct HoleTally {
  int inner = 0;
  int outer = 0;
};

void expectParity(const GeometricGraph& ldel, double radius, const std::string& what,
                  HoleTally* tally = nullptr) {
  expectSameFaces(graph::enumerateFaces(ldel), referenceFaces(ldel), what + " LDel faces");

  const auto ref = referenceDetectHoles(ldel, radius);
  const auto got = holes::detectHoles(ldel, radius);
  ASSERT_EQ(got.holes.size(), ref.rings.size()) << what;
  for (std::size_t hi = 0; hi < got.holes.size(); ++hi) {
    EXPECT_EQ(got.holes[hi].ring, ref.rings[hi]) << what << " hole " << hi;
    EXPECT_EQ(got.holes[hi].outer, ref.outer[hi]) << what << " hole " << hi;
  }
  if (tally != nullptr) {
    for (const auto& h : got.holes) ++(h.outer ? tally->outer : tally->inner);
  }
  EXPECT_EQ(got.outerBoundary, ref.outerBoundary) << what;
  EXPECT_EQ(got.holesOfNode, ref.holesOfNode) << what;

  // The shared augmented embedding is the walk of LDel^2 plus the hull
  // edges the reference adds.
  ASSERT_NE(got.augmented, nullptr) << what;
  const auto refAugFaces = referenceFaces(ref.augmented);
  expectSameFaces(got.augmented->embedding.faces, refAugFaces, what + " augmented faces");
  std::set<std::pair<NodeId, NodeId>> synthetic;
  for (auto [a, b] : got.augmented->longHullEdges) synthetic.insert({std::min(a, b), std::max(a, b)});
  EXPECT_EQ(synthetic, ref.synthetic) << what;
  // Each long hull edge is an edge of the augmented embedding: a face on
  // both sides, which hole detection relies on when it marks them.
  const auto& augEmb = got.augmented->embedding;
  for (const auto& [a, b] : got.augmented->longHullEdges) {
    EXPECT_GE(augEmb.faceLeftOf(a, b), 0) << what << " (" << a << ", " << b << ")";
    EXPECT_GE(augEmb.faceLeftOf(b, a), 0) << what << " (" << b << ", " << a << ")";
  }

  // faceLeftOf against the reference face-of-edge map, on every ordered
  // node pair: the map's face for edges, -1 for non-edges.
  const routing::PlanarSubdivision sub(ldel, got, radius);
  std::map<std::pair<NodeId, NodeId>, int> faceOfEdge;
  for (std::size_t fi = 0; fi < refAugFaces.size(); ++fi) {
    const auto& cycle = refAugFaces[fi].cycle;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      faceOfEdge[{cycle[i], cycle[(i + 1) % cycle.size()]}] = static_cast<int>(fi);
    }
  }
  const auto n = static_cast<NodeId>(ldel.numNodes());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const auto it = faceOfEdge.find({u, v});
      const int want = it == faceOfEdge.end() ? -1 : it->second;
      EXPECT_EQ(sub.faceLeftOf(u, v), want) << what << " (" << u << ", " << v << ")";
    }
  }

  // Face classification as the map-based subdivision made it.
  std::map<std::vector<NodeId>, int> holeByKey;
  for (std::size_t hi = 0; hi < ref.rings.size(); ++hi) {
    auto key = ref.rings[hi];
    std::sort(key.begin(), key.end());
    holeByKey[key] = static_cast<int>(hi);
  }
  for (std::size_t fi = 0; fi < refAugFaces.size(); ++fi) {
    const auto& cycle = refAugFaces[fi].cycle;
    bool walkable = false;
    int hole = -1;
    if (!refAugFaces[fi].outer) {
      bool allReal = true;
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        NodeId a = cycle[i];
        NodeId b = cycle[(i + 1) % cycle.size()];
        if (a > b) std::swap(a, b);
        allReal = allReal && !ref.synthetic.contains({a, b});
      }
      walkable = distinctCount(cycle) == 3 && cycle.size() == 3 && allReal;
      if (!walkable) {
        auto key = cycle;
        std::sort(key.begin(), key.end());
        const auto it = holeByKey.find(key);
        if (it != holeByKey.end()) hole = it->second;
      }
    }
    const int f = static_cast<int>(fi);
    EXPECT_EQ(sub.isWalkable(f), walkable) << what << " face " << fi;
    EXPECT_EQ(sub.holeOfFace(f), hole) << what << " face " << fi;
  }
}

GeometricGraph ldelOf(const scenario::Scenario& sc) {
  delaunay::LDelOptions opts;
  opts.radius = sc.radius;
  opts.reliableRadius = sc.radius;
  return delaunay::buildLocalizedDelaunay(sc.points, opts).graph;
}

// --- Cases ----------------------------------------------------------------

TEST(FaceParity, TestkitGeneratorLDelGraphs) {
  HoleTally tally;
  for (const char* name : {"random_udg", "collinear", "cocircular", "hull_tangent", "maze_comb"}) {
    const auto* gen = testkit::findGenerator(name);
    ASSERT_NE(gen, nullptr) << name;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const auto sc = gen->make(seed);
      expectParity(ldelOf(sc), sc.radius, std::string(name) + " seed " + std::to_string(seed),
                   &tally);
    }
  }
  EXPECT_GT(tally.inner, 0);
  EXPECT_GT(tally.outer, 0);
}

TEST(FaceParity, CutVertex) {
  // Two triangles sharing node 2, a pendant edge off node 4 and a square
  // with one diagonal hanging off node 0: walks pass node 2 twice.
  GeometricGraph g({{0, 0}, {1, 0}, {0.5, 0.8}, {1.3, 1.6}, {-0.2, 1.6}, {-0.6, 2.4},
                    {-1, 0}, {-1, -1}, {0, -1}});
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}, {4, 5},
           {0, 6}, {6, 7}, {7, 8}, {8, 0}, {6, 8}}) {
    g.addEdge(a, b);
  }
  expectParity(g, 1.0, "cut vertex");
  expectParity(g, 10.0, "cut vertex, no long hull edge");
}

TEST(FaceParity, DisconnectedGraph) {
  // A hexagon ring with a triangle inside it, a far square with a
  // diagonal, a dangling edge and an isolated node.
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 6; ++i) {
    const double a = i * 1.0471975511965976;
    pts.push_back({3.0 * std::cos(a), 3.0 * std::sin(a)});
  }
  pts.insert(pts.end(), {{-0.5, -0.4}, {0.6, -0.3}, {0.1, 0.7},
                         {8, 0}, {9, 0}, {9, 1}, {8, 1},
                         {5, 5}, {5.5, 5.2},
                         {-6, 4}});
  GeometricGraph g(pts);
  for (int i = 0; i < 6; ++i) g.addEdge(i, (i + 1) % 6);
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {6, 7}, {7, 8}, {8, 6}, {9, 10}, {10, 11}, {11, 12}, {12, 9}, {9, 11}, {13, 14}}) {
    g.addEdge(a, b);
  }
  expectParity(g, 1.0, "disconnected");
}

TEST(FaceParity, TwoPointHull) {
  GeometricGraph g({{0, 0}, {3, 0}});
  expectParity(g, 1.0, "two points, no edge");
  g.addEdge(0, 1);
  expectParity(g, 1.0, "two points, one edge");
}

}  // namespace
}  // namespace hybrid
