#include "graph/csr.hpp"

namespace hybrid::graph {

CsrAdjacency buildCsr(const GeometricGraph& g) {
  const std::size_t n = g.numNodes();
  CsrAdjacency csr;
  csr.offsets.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    csr.offsets[v + 1] =
        csr.offsets[v] + static_cast<std::int32_t>(g.neighbors(static_cast<NodeId>(v)).size());
  }
  csr.targets.resize(static_cast<std::size_t>(csr.offsets[n]));
  csr.weights.resize(csr.targets.size());
  std::size_t k = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto pv = g.position(static_cast<NodeId>(v));
    for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
      csr.targets[k] = w;
      csr.weights[k] = geom::dist(pv, g.position(w));
      ++k;
    }
  }
  return csr;
}

CsrAdjacency buildCsr(const std::vector<std::vector<int>>& adj,
                      const std::vector<geom::Vec2>& pos) {
  const std::size_t n = adj.size();
  CsrAdjacency csr;
  csr.offsets.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    csr.offsets[v + 1] = csr.offsets[v] + static_cast<std::int32_t>(adj[v].size());
  }
  csr.targets.resize(static_cast<std::size_t>(csr.offsets[n]));
  csr.weights.resize(csr.targets.size());
  std::size_t k = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (int w : adj[v]) {
      csr.targets[k] = w;
      csr.weights[k] = geom::dist(pos[v], pos[static_cast<std::size_t>(w)]);
      ++k;
    }
  }
  return csr;
}

void buildCsr(std::span<const std::pair<NodeId, NodeId>> edges,
              const std::vector<geom::Vec2>& pos, CsrAdjacency& out) {
  const std::size_t n = pos.size();
  out.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++out.offsets[static_cast<std::size_t>(u) + 1];
    ++out.offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.targets.resize(static_cast<std::size_t>(out.offsets[n]));
  out.weights.resize(out.targets.size());
  // Fill with offsets[v] as v's cursor; afterwards offsets[v] holds v's
  // end, i.e. v + 1's begin, so one shift restores the table.
  const auto push = [&](NodeId from, NodeId to) {
    const auto k = static_cast<std::size_t>(out.offsets[static_cast<std::size_t>(from)]++);
    out.targets[k] = to;
    out.weights[k] =
        geom::dist(pos[static_cast<std::size_t>(from)], pos[static_cast<std::size_t>(to)]);
  };
  for (const auto& [u, v] : edges) {
    push(u, v);
    push(v, u);
  }
  for (std::size_t v = n; v > 0; --v) out.offsets[v] = out.offsets[v - 1];
  out.offsets[0] = 0;
}

}  // namespace hybrid::graph
