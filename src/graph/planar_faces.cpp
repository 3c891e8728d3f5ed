#include "graph/planar_faces.hpp"

#include "graph/rotation.hpp"

namespace hybrid::graph {

int PlanarEmbedding::halfEdge(NodeId u, NodeId v) const {
  if (u < 0 || static_cast<std::size_t>(u) >= numNodes()) return -1;
  const auto end = offsets[static_cast<std::size_t>(u) + 1];
  for (auto h = offsets[static_cast<std::size_t>(u)]; h < end; ++h) {
    if (target[static_cast<std::size_t>(h)] == v) return h;
  }
  return -1;
}

PlanarEmbedding embedPlanar(const GeometricGraph& g,
                            std::span<const std::pair<NodeId, NodeId>> extraEdges) {
  const std::size_t n = g.numNodes();
  PlanarEmbedding e;

  // Neighbour lists in adjacency order: g's own, then the extra edges.
  e.offsets.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) e.offsets[u + 1] = g.degree(static_cast<NodeId>(u));
  for (const auto& [a, b] : extraEdges) {
    ++e.offsets[static_cast<std::size_t>(a) + 1];
    ++e.offsets[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) e.offsets[u + 1] += e.offsets[u];
  e.target.resize(static_cast<std::size_t>(e.offsets[n]));
  std::vector<std::int32_t> fill(e.offsets.begin(), e.offsets.end() - 1);
  for (std::size_t u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(static_cast<NodeId>(u))) {
      e.target[static_cast<std::size_t>(fill[u]++)] = v;
    }
  }
  for (const auto& [a, b] : extraEdges) {
    e.target[static_cast<std::size_t>(fill[static_cast<std::size_t>(a)]++)] = b;
    e.target[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] = a;
  }
  // Faces are started in adjacency order; the rotation sorts it ccw.
  const std::vector<NodeId> adjacency = e.target;
  std::vector<CcwKey> scratch;
  for (std::size_t u = 0; u < n; ++u) {
    const auto b = static_cast<std::size_t>(e.offsets[u]);
    const auto end = static_cast<std::size_t>(e.offsets[u + 1]);
    sortCcw(g, static_cast<NodeId>(u), std::span<NodeId>(e.target).subspan(b, end - b),
            scratch);
  }

  e.twin.assign(e.target.size(), -1);
  for (std::size_t u = 0; u < n; ++u) {
    for (auto h = e.offsets[u]; h < e.offsets[u + 1]; ++h) {
      auto& t = e.twin[static_cast<std::size_t>(h)];
      if (t >= 0) continue;
      t = e.halfEdge(e.target[static_cast<std::size_t>(h)], static_cast<NodeId>(u));
      e.twin[static_cast<std::size_t>(t)] = h;
    }
  }

  // Walk the face on the left of each unassigned half-edge: arriving at b
  // over (a, b), leave b over the clockwise predecessor of a in b's
  // rotation, i.e. the half-edge before twin(a, b).
  e.face.assign(e.target.size(), -1);
  for (std::size_t u = 0; u < n; ++u) {
    for (auto i = e.offsets[u]; i < e.offsets[u + 1]; ++i) {
      int h = e.halfEdge(static_cast<NodeId>(u), adjacency[static_cast<std::size_t>(i)]);
      if (e.face[static_cast<std::size_t>(h)] >= 0) continue;
      const auto id = static_cast<std::int32_t>(e.faces.size());
      Face f;
      auto a = static_cast<NodeId>(u);
      while (e.face[static_cast<std::size_t>(h)] < 0) {
        e.face[static_cast<std::size_t>(h)] = id;
        f.cycle.push_back(a);
        const NodeId b = e.target[static_cast<std::size_t>(h)];
        const int t = e.twin[static_cast<std::size_t>(h)];
        const auto bb = static_cast<std::size_t>(b);
        h = (t == e.offsets[bb] ? e.offsets[bb + 1] : t) - 1;
        a = b;
      }
      double area2 = 0.0;
      for (std::size_t k = 0; k < f.cycle.size(); ++k) {
        const geom::Vec2 p = g.position(f.cycle[k]);
        const geom::Vec2 q = g.position(f.cycle[(k + 1) % f.cycle.size()]);
        area2 += p.cross(q);
      }
      f.signedArea2 = area2;
      f.outer = area2 < 0.0;
      e.faces.push_back(std::move(f));
    }
  }
  return e;
}

std::vector<Face> enumerateFaces(const GeometricGraph& g) { return embedPlanar(g).faces; }

}  // namespace hybrid::graph
