#include "delaunay/ldel.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "delaunay/udg.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "spatial/grid_index.hpp"
#include "util/parallel.hpp"

namespace hybrid::delaunay {

namespace {

using geom::Vec2;

// True if the circumcircle of (a, b, c) strictly contains p (orientation
// handled internally).
bool circumcircleContains(Vec2 a, Vec2 b, Vec2 c, Vec2 p) {
  const int o = geom::orient(a, b, c);
  if (o == 0) return false;  // degenerate triangle: treat as empty
  const int ic = geom::inCircle(a, b, c, p);
  return o > 0 ? ic > 0 : ic < 0;
}

}  // namespace

namespace {

// Deterministic per-edge coin for the QUDG model.
bool dropEdge(int u, int v, unsigned seed, double p) {
  if (u > v) std::swap(u, v);
  std::uint64_t x = (static_cast<std::uint64_t>(seed) << 40) ^
                    (static_cast<std::uint64_t>(u) << 20) ^
                    static_cast<std::uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 32;
  const double r = static_cast<double>(x & 0xFFFFFFFFULL) / 4294967296.0;
  return r < p;
}

}  // namespace

LocalizedDelaunay buildLocalizedDelaunay(const std::vector<geom::Vec2>& points,
                                         const LDelOptions& opts) {
  LocalizedDelaunay out;
  out.udg = buildUnitDiskGraph(points, opts.radius);
  if (opts.dropProbability > 0.0 && opts.reliableRadius < opts.radius) {
    for (const auto& [u, v] : out.udg.edges()) {
      if (out.udg.edgeLength(u, v) > opts.reliableRadius &&
          dropEdge(u, v, opts.dropSeed, opts.dropProbability)) {
        out.udg.removeEdge(u, v);
      }
    }
  }
  out.graph = graph::GeometricGraph(points);

  const int n = static_cast<int>(points.size());
  const spatial::GridIndex grid(points, opts.radius);

  const unsigned threads = util::resolveThreads(opts.threads);

  // k-hop neighborhoods (including the node itself), as sorted vectors: a
  // BFS per node over chunk-local hop marks, resetting only the entries it
  // visited.
  std::vector<std::vector<int>> khop(static_cast<std::size_t>(n));
  util::parallelChunks(
      static_cast<std::size_t>(n), threads, [&](std::size_t begin, std::size_t end, unsigned) {
        std::vector<int> hops(static_cast<std::size_t>(n), -1);
        std::vector<int> queue;
        for (std::size_t v = begin; v < end; ++v) {
          queue.assign(1, static_cast<int>(v));
          hops[v] = 0;
          for (std::size_t qi = 0; qi < queue.size(); ++qi) {
            const int u = queue[qi];
            const int hu = hops[static_cast<std::size_t>(u)];
            if (opts.k >= 0 && hu >= opts.k) continue;
            for (int w : out.udg.neighbors(u)) {
              if (hops[static_cast<std::size_t>(w)] < 0) {
                hops[static_cast<std::size_t>(w)] = hu + 1;
                queue.push_back(w);
              }
            }
          }
          for (int u : queue) hops[static_cast<std::size_t>(u)] = -1;
          std::sort(queue.begin(), queue.end());
          khop[v] = queue;
        }
      });

  // Gabriel edges: UDG edges whose diametral circle is empty. Only nodes
  // within ||uv||/2 of the midpoint can violate emptiness.
  const auto udgEdges = out.udg.edges();
  std::vector<std::vector<std::pair<int, int>>> gabrielPerChunk(threads);
  util::parallelChunks(
      udgEdges.size(), threads, [&](std::size_t begin, std::size_t end, unsigned chunk) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [u, v] = udgEdges[e];
          const Vec2 pu = points[static_cast<std::size_t>(u)];
          const Vec2 pv = points[static_cast<std::size_t>(v)];
          const Vec2 mid = geom::midpoint(pu, pv);
          bool empty = true;
          for (int w : grid.queryRadius(mid, geom::dist(pu, pv) / 2.0 + 1e-12)) {
            if (w == u || w == v) continue;
            if (geom::inDiametralCircle(pu, pv, points[static_cast<std::size_t>(w)])) {
              empty = false;
              break;
            }
          }
          if (empty) gabrielPerChunk[chunk].emplace_back(std::min(u, v), std::max(u, v));
        }
      });
  for (const auto& list : gabrielPerChunk) {
    for (const auto& [u, v] : list) {
      out.gabrielEdges.emplace_back(u, v);
      out.graph.addEdge(u, v);
    }
  }

  // k-localized triangles: all UDG triangles (u, v, w) whose circumcircle
  // contains no node of N_k(u) u N_k(v) u N_k(w).
  std::vector<std::vector<std::array<int, 3>>> triPerChunk(threads);
  util::parallelChunks(
      static_cast<std::size_t>(n), threads,
      [&](std::size_t begin, std::size_t end, unsigned chunk) {
        for (std::size_t uu = begin; uu < end; ++uu) {
          const int u = static_cast<int>(uu);
          const auto nbrs = out.udg.neighbors(u);
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const int v = nbrs[i];
            if (v < u) continue;
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
              const int w = nbrs[j];
              if (w < u || !out.udg.hasEdge(v, w)) continue;
              // Now u < v and u < w; dedupe by requiring v < w.
              const int lo = std::min(v, w);
              const int hi = std::max(v, w);

              const Vec2 pu = points[static_cast<std::size_t>(u)];
              const Vec2 pv = points[static_cast<std::size_t>(lo)];
              const Vec2 pw = points[static_cast<std::size_t>(hi)];
              bool empty = true;
              for (const int base : {u, lo, hi}) {
                for (int x : khop[static_cast<std::size_t>(base)]) {
                  if (x == u || x == lo || x == hi) continue;
                  if (circumcircleContains(pu, pv, pw,
                                           points[static_cast<std::size_t>(x)])) {
                    empty = false;
                    break;
                  }
                }
                if (!empty) break;
              }
              if (empty) triPerChunk[chunk].push_back({u, lo, hi});
            }
          }
        }
      });
  for (const auto& list : triPerChunk) {
    for (const auto& t : list) {
      out.triangles.push_back(t);
      out.graph.addEdge(t[0], t[1]);
      out.graph.addEdge(t[0], t[2]);
      out.graph.addEdge(t[1], t[2]);
    }
  }

  if (opts.planarize) {
    // LDel^k is planar for k >= 2 (Li et al.); this pass is a numerical
    // safety net and normally removes nothing. Crossing pairs are resolved
    // by dropping the longer non-Gabriel edge.
    std::unordered_set<long long> gabriel;
    for (const auto& [u, v] : out.gabrielEdges) {
      gabriel.insert(static_cast<long long>(u) * n + v);
    }
    auto isGabriel = [&](int u, int v) {
      if (u > v) std::swap(u, v);
      return gabriel.contains(static_cast<long long>(u) * n + v);
    };
    bool changed = true;
    while (changed) {
      changed = false;
      const auto edges = out.graph.edges();
      // Edges are at most `radius` long, so two edges can only cross when
      // their midpoints are within `radius`; index midpoints on a grid.
      std::vector<Vec2> mids;
      mids.reserve(edges.size());
      for (const auto& [u, v] : edges) {
        mids.push_back(geom::midpoint(points[static_cast<std::size_t>(u)],
                                      points[static_cast<std::size_t>(v)]));
      }
      const spatial::GridIndex midGrid(mids, opts.radius);
      for (std::size_t a = 0; a < edges.size() && !changed; ++a) {
        const geom::Segment sa{points[static_cast<std::size_t>(edges[a].first)],
                               points[static_cast<std::size_t>(edges[a].second)]};
        for (int bi : midGrid.neighborsOf(static_cast<int>(a), opts.radius)) {
          const auto b = static_cast<std::size_t>(bi);
          if (b <= a) continue;
          if (edges[a].first == edges[b].first || edges[a].first == edges[b].second ||
              edges[a].second == edges[b].first || edges[a].second == edges[b].second) {
            continue;
          }
          const geom::Segment sb{points[static_cast<std::size_t>(edges[b].first)],
                                 points[static_cast<std::size_t>(edges[b].second)]};
          if (!geom::segmentsCrossProperly(sa, sb)) continue;
          const bool dropA = !isGabriel(edges[a].first, edges[a].second) &&
                             (isGabriel(edges[b].first, edges[b].second) ||
                              sa.length() >= sb.length());
          const auto& victim = dropA ? edges[a] : edges[b];
          out.graph.removeEdge(victim.first, victim.second);
          ++out.removedCrossings;
          changed = true;
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace hybrid::delaunay
