#include "delaunay/ldel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "delaunay/udg.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "obs/span.hpp"
#include "spatial/grid_index.hpp"
#include "util/parallel.hpp"

namespace hybrid::delaunay {

namespace {

using geom::Vec2;

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

// The UDG lists after the QUDG edge drop. Removing an edge keeps the
// order of the remaining neighbours, so filtering each list on its own
// gives the lists that removing the dropped edges one by one would.
UdgLists dropUnreliableEdges(const std::vector<Vec2>& points, const UdgLists& udg,
                             const LDelOptions& opts) {
  const std::size_t n = points.size();
  UdgLists kept;
  kept.offsets.assign(n + 1, 0);
  kept.nbrs.reserve(udg.nbrs.size());
  for (std::size_t u = 0; u < n; ++u) {
    for (const int v : udg.of(static_cast<int>(u))) {
      if (geom::dist(points[u], points[static_cast<std::size_t>(v)]) > opts.reliableRadius &&
          dropEdge(static_cast<int>(u), v, opts.dropSeed, opts.dropProbability)) {
        continue;
      }
      kept.nbrs.push_back(v);
    }
    kept.offsets[u + 1] = static_cast<int>(kept.nbrs.size());
  }
  return kept;
}

// Strict-inequality bounding-box test on the raw coordinates: no
// arithmetic, so it is exact, and segments whose boxes are disjoint or
// only touch cannot cross properly.
bool boxesOverlap(Vec2 a0, Vec2 a1, Vec2 b0, Vec2 b1) {
  return std::max(a0.x, a1.x) >= std::min(b0.x, b1.x) &&
         std::max(b0.x, b1.x) >= std::min(a0.x, a1.x) &&
         std::max(a0.y, a1.y) >= std::min(b0.y, b1.y) &&
         std::max(b0.y, b1.y) >= std::min(a0.y, a1.y);
}

// An upper bound on (2R)^2 for the circumradius R of the non-degenerate
// triangle (a, b, c), or +inf when rounding could spoil it. A point
// strictly inside the circumcircle is closer than 2R to a, so a point
// farther than that is no candidate, and the exact in-circle test can
// skip it without changing the verdict.
double circumdiameterBound2(Vec2 a, Vec2 b, Vec2 c) {
  const double ab = geom::dist2(a, b);
  const double bc = geom::dist2(b, c);
  const double ca = geom::dist2(c, a);
  // (2R)^2 = |ab|^2 |bc|^2 |ca|^2 / det^2 with det = orient's determinant.
  // `slack` is far above the float error of det (Shewchuk's bound is
  // 3.3e-16 times the same sum), and the 1e-9 margin far above the few
  // ulps of every other step. Below 1e-100 the product could underflow.
  const double detleft = (a.x - c.x) * (b.y - c.y);
  const double detright = (a.y - c.y) * (b.x - c.x);
  const double slack = 1e-12 * (std::fabs(detleft) + std::fabs(detright));
  const double det = std::fabs(detleft - detright) - slack;
  if (!(det > 0.0) || std::min({ab, bc, ca}) < 1e-100) {
    return std::numeric_limits<double>::infinity();
  }
  return ab * bc * ca / (det * det) * (1.0 + 1e-9);
}

}  // namespace

LocalizedDelaunay buildLocalizedDelaunay(const std::vector<geom::Vec2>& points,
                                         const LDelOptions& opts) {
  LocalizedDelaunay out;
  const int n = static_cast<int>(points.size());
  const auto un = static_cast<std::size_t>(n);
  const unsigned threads = util::resolveThreads(opts.threads);

  // The UDG as flat lists, before (`fullUdg`) and after (`udg`) the QUDG
  // edge drop.
  const bool drops = opts.dropProbability > 0.0 && opts.reliableRadius < opts.radius;
  UdgLists fullUdg;
  UdgLists droppedUdg;
  const UdgLists& udg = drops ? droppedUdg : fullUdg;
  {
    obs::ScopedSpan span("delaunay.build.udg");
    fullUdg = unitDiskLists(points, opts.radius);
    if (drops) droppedUdg = dropUnreliableEdges(points, fullUdg, opts);
    out.udg = graphOf(points, udg);
  }
  out.graph = graph::GeometricGraph(points);

  // k-hop neighborhoods (including the node itself) in BFS order, in one
  // flat array: khop[khopStart[v], khopStart[v + 1]). A BFS per node over
  // chunk-local hop marks, resetting only the entries it visited; each
  // chunk fills a list of its own, and the lists are joined in chunk order.
  // Only the triangle test reads them, and its verdict does not depend on
  // their order; BFS order puts the 1-hop neighbours, which reject most
  // non-empty triangles, right after the node.
  std::vector<int> khopStart(un + 1, 0);
  std::vector<int> khop;
  {
    obs::ScopedSpan span("delaunay.build.khop");
    std::vector<std::vector<int>> khopPerChunk(threads);
    util::parallelChunks(un, threads, [&](std::size_t begin, std::size_t end, unsigned chunk) {
      std::vector<int> hops(un, -1);
      std::vector<int>& flat = khopPerChunk[chunk];
      for (std::size_t v = begin; v < end; ++v) {
        const std::size_t first = flat.size();
        flat.push_back(static_cast<int>(v));
        hops[v] = 0;
        for (std::size_t qi = first; qi < flat.size(); ++qi) {
          const int u = flat[qi];
          const int hu = hops[static_cast<std::size_t>(u)];
          if (opts.k >= 0 && hu >= opts.k) continue;
          for (const int w : udg.of(u)) {
            if (hops[static_cast<std::size_t>(w)] < 0) {
              hops[static_cast<std::size_t>(w)] = hu + 1;
              flat.push_back(w);
            }
          }
        }
        for (std::size_t qi = first; qi < flat.size(); ++qi) {
          hops[static_cast<std::size_t>(flat[qi])] = -1;
        }
        khopStart[v + 1] = static_cast<int>(flat.size() - first);
      }
    });
    for (std::size_t v = 0; v < un; ++v) khopStart[v + 1] += khopStart[v];
    khop.reserve(static_cast<std::size_t>(khopStart[un]));
    for (const auto& flat : khopPerChunk) khop.insert(khop.end(), flat.begin(), flat.end());
  }
  auto khopOf = [&](int v) {
    const auto b = static_cast<std::size_t>(khopStart[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(khopStart[static_cast<std::size_t>(v) + 1]);
    return std::span<const int>(khop.data() + b, e - b);
  };

  // Gabriel edges: UDG edges whose diametral circle is empty. A point
  // strictly inside it is closer than |uv| <= radius to u and to v, so it
  // is a UDG neighbour of u, or of v when float rounding at |uw| ~ |uv|
  // keeps it off u's list. The lists from before the QUDG drop are the
  // candidates: a dropped link does not move a point.
  {
    obs::ScopedSpan span("delaunay.build.gabriel");
    std::vector<std::vector<std::pair<int, int>>> gabrielPerChunk(threads);
    util::parallelChunks(un, threads, [&](std::size_t begin, std::size_t end, unsigned chunk) {
      for (std::size_t uu = begin; uu < end; ++uu) {
        const int u = static_cast<int>(uu);
        const Vec2 pu = points[uu];
        for (const int v : udg.of(u)) {
          if (v < u) continue;
          const Vec2 pv = points[static_cast<std::size_t>(v)];
          auto inside = [&](int w) {
            return w != u && w != v &&
                   geom::inDiametralCircle(pu, pv, points[static_cast<std::size_t>(w)]);
          };
          const auto nu = fullUdg.of(u);
          const auto nv = fullUdg.of(v);
          if (std::none_of(nu.begin(), nu.end(), inside) &&
              std::none_of(nv.begin(), nv.end(), inside)) {
            gabrielPerChunk[chunk].emplace_back(u, v);
          }
        }
      }
    });
    for (const auto& list : gabrielPerChunk) {
      for (const auto& [u, v] : list) {
        out.gabrielEdges.emplace_back(u, v);
        out.graph.addEdge(u, v);
      }
    }
  }

  // k-localized triangles: all UDG triangles (u, v, w) whose circumcircle
  // contains no node of N_k(u) u N_k(v) u N_k(w). Per chunk, `nbrMark`
  // marks N(v) once per (u, v), and `tested` stamps the candidates a
  // triangle has tested, so each is tested once. Candidates farther from u
  // than the circumdiameter bound are skipped; the rest get the exact
  // test. When that bound is safely below the radius, every point inside
  // the circumcircle is a UDG neighbour of u, and without QUDG drops and
  // for k != 0 those are all in N_k(u): then N(u) is the whole candidate
  // set that matters.
  const bool nearOnly = !drops && opts.k != 0;
  // The 0.2% margin keeps float rounding of the UDG's distance test and
  // grid cells from mattering.
  const double nearReach2 = opts.radius * opts.radius * 0.998;
  {
    obs::ScopedSpan span("delaunay.build.triangles");
    std::vector<std::vector<std::array<int, 3>>> triPerChunk(threads);
    util::parallelChunks(un, threads, [&](std::size_t begin, std::size_t end, unsigned chunk) {
      std::vector<std::uint32_t> nbrMark(un, 0);
      std::vector<std::uint32_t> tested(un, 0);
      std::uint32_t pairStamp = 0;
      std::uint32_t triStamp = 0;
      for (std::size_t uu = begin; uu < end; ++uu) {
        const int u = static_cast<int>(uu);
        const auto nbrs = udg.of(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const int v = nbrs[i];
          if (v < u) continue;
          ++pairStamp;
          for (const int x : udg.of(v)) nbrMark[static_cast<std::size_t>(x)] = pairStamp;
          for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
            const int w = nbrs[j];
            if (w < u || nbrMark[static_cast<std::size_t>(w)] != pairStamp) continue;
            // Now u < v and u < w; dedupe by requiring v < w.
            const int lo = std::min(v, w);
            const int hi = std::max(v, w);
            const Vec2 pu = points[uu];
            const Vec2 pv = points[static_cast<std::size_t>(lo)];
            const Vec2 pw = points[static_cast<std::size_t>(hi)];
            // A degenerate (collinear) triangle counts as empty.
            const int o = geom::orient(pu, pv, pw);
            bool empty = true;
            if (o != 0) {
              const double reach2 = circumdiameterBound2(pu, pv, pw);
              auto inside = [&](int x) {
                const Vec2 px = points[static_cast<std::size_t>(x)];
                if (geom::dist2(px, pu) > reach2) return false;
                const int ic = geom::inCircle(pu, pv, pw, px);
                return o > 0 ? ic > 0 : ic < 0;
              };
              if (nearOnly && reach2 < nearReach2) {
                for (const int x : nbrs) {
                  if (x != lo && x != hi && inside(x)) {
                    empty = false;
                    break;
                  }
                }
              } else {
                ++triStamp;
                tested[uu] = tested[static_cast<std::size_t>(lo)] =
                    tested[static_cast<std::size_t>(hi)] = triStamp;
                auto none = [&](std::span<const int> cands) {
                  for (const int x : cands) {
                    auto& mark = tested[static_cast<std::size_t>(x)];
                    if (mark == triStamp) continue;
                    mark = triStamp;
                    if (inside(x)) return false;
                  }
                  return true;
                };
                empty = none(khopOf(u)) && none(khopOf(lo)) && none(khopOf(hi));
              }
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
  }

  if (opts.planarize) {
    // LDel^k is planar for k >= 2 (Li et al.); this pass is a numerical
    // safety net and normally removes nothing. Crossing pairs are resolved
    // by dropping the longer non-Gabriel edge, scanning the edges in
    // edges() order and each edge's later partners in midpoint-grid order.
    // After a removal the scan resumes where it was: the edges before it
    // crossed no later edge, and removing an edge keeps the order of the
    // others, so a restart from the first edge would find the same next
    // crossing.
    obs::ScopedSpan span("delaunay.build.planarize");
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
    std::vector<char> removed(edges.size(), 0);
    // Gabriel edge keys, sorted once the first crossing needs them.
    std::vector<long long> gabriel;
    auto isGabriel = [&](std::pair<int, int> e) {
      if (gabriel.empty() && !out.gabrielEdges.empty()) {
        for (const auto& [u, v] : out.gabrielEdges) {
          gabriel.push_back(static_cast<long long>(u) * n + v);
        }
        std::sort(gabriel.begin(), gabriel.end());
      }
      return std::binary_search(gabriel.begin(), gabriel.end(),
                                static_cast<long long>(e.first) * n + e.second);
    };
    for (std::size_t a = 0; a < edges.size(); ++a) {
      const auto ea = edges[a];
      const geom::Segment sa{points[static_cast<std::size_t>(ea.first)],
                             points[static_cast<std::size_t>(ea.second)]};
      midGrid.forEachWithin(mids[a], opts.radius, [&](int bi) {
        const auto b = static_cast<std::size_t>(bi);
        if (removed[a] != 0 || removed[b] != 0) return;
        const auto eb = edges[b];
        if (ea.first == eb.first || ea.first == eb.second || ea.second == eb.first ||
            ea.second == eb.second) {
          return;
        }
        const geom::Segment sb{points[static_cast<std::size_t>(eb.first)],
                               points[static_cast<std::size_t>(eb.second)]};
        if (!boxesOverlap(sa.a, sa.b, sb.a, sb.b) || !geom::segmentsCrossProperly(sa, sb)) {
          return;
        }
        const bool dropA = !isGabriel(ea) && (isGabriel(eb) || sa.length() >= sb.length());
        const std::size_t victim = dropA ? a : b;
        out.graph.removeEdge(edges[victim].first, edges[victim].second);
        removed[victim] = 1;
        ++out.removedCrossings;
      }, static_cast<int>(a));
    }
  }
  return out;
}

}  // namespace hybrid::delaunay
