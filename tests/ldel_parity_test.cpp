// Parity of buildLocalizedDelaunay with a replica of the builder it
// replaced: hash-map grid, UDG through addEdge(), a linear hasEdge() scan
// per triangle candidate, a grid query per Gabriel edge and a
// planarization that restarts after every removal. The replica is the
// reference for every LocalizedDelaunay field, adjacency order included.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "delaunay/ldel.hpp"
#include "delaunay/udg.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "spatial/grid_index.hpp"
#include "testkit/generators.hpp"
#include "util/parallel.hpp"

namespace hybrid::delaunay {
namespace {

using geom::Vec2;

// --- Reference: the hash-map grid ----------------------------------------

class ReferenceGrid {
 public:
  ReferenceGrid(const std::vector<Vec2>& points, double cellSize)
      : points_(points), cell_(cellSize > 0.0 ? cellSize : 1.0) {
    cells_.reserve(points.size());
    for (int i = 0; i < static_cast<int>(points.size()); ++i) {
      cells_[cellKey(points[static_cast<std::size_t>(i)])].push_back(i);
    }
  }

  std::vector<int> queryRadius(Vec2 center, double radius) const {
    std::vector<int> out;
    const double r2 = radius * radius;
    const auto cx = static_cast<std::int64_t>(std::floor(center.x / cell_));
    const auto cy = static_cast<std::int64_t>(std::floor(center.y / cell_));
    const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
    for (std::int64_t dx = -reach; dx <= reach; ++dx) {
      const std::int64_t colBits = (cx + dx + 0x40000000LL) << 32;
      for (std::int64_t dy = -reach; dy <= reach; ++dy) {
        const auto it = cells_.find(colBits | ((cy + dy + 0x40000000LL) & 0xFFFFFFFFLL));
        if (it == cells_.end()) continue;
        for (int i : it->second) {
          if (geom::dist2(points_[static_cast<std::size_t>(i)], center) <= r2) out.push_back(i);
        }
      }
    }
    return out;
  }

  std::vector<int> neighborsOf(int i, double radius) const {
    auto out = queryRadius(points_[static_cast<std::size_t>(i)], radius);
    std::erase(out, i);
    return out;
  }

 private:
  std::int64_t cellKey(Vec2 p) const {
    const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell_));
    const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell_));
    return ((cx + 0x40000000LL) << 32) | ((cy + 0x40000000LL) & 0xFFFFFFFFLL);
  }

  const std::vector<Vec2>& points_;
  double cell_;
  std::unordered_map<std::int64_t, std::vector<int>> cells_;
};

graph::GeometricGraph referenceUnitDiskGraph(const std::vector<Vec2>& points, double radius) {
  graph::GeometricGraph g(points);
  const ReferenceGrid grid(points, radius);
  for (int i = 0; i < static_cast<int>(points.size()); ++i) {
    for (int j : grid.neighborsOf(i, radius)) {
      if (j > i) g.addEdge(i, j);
    }
  }
  return g;
}

// --- Reference: the LDel^k builder ----------------------------------------

bool circumcircleContains(Vec2 a, Vec2 b, Vec2 c, Vec2 p) {
  const int o = geom::orient(a, b, c);
  if (o == 0) return false;
  const int ic = geom::inCircle(a, b, c, p);
  return o > 0 ? ic > 0 : ic < 0;
}

bool dropEdge(int u, int v, unsigned seed, double p) {
  if (u > v) std::swap(u, v);
  std::uint64_t x = (static_cast<std::uint64_t>(seed) << 40) ^
                    (static_cast<std::uint64_t>(u) << 20) ^ static_cast<std::uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 32;
  const double r = static_cast<double>(x & 0xFFFFFFFFULL) / 4294967296.0;
  return r < p;
}

LocalizedDelaunay referenceLocalizedDelaunay(const std::vector<Vec2>& points,
                                             const LDelOptions& opts) {
  LocalizedDelaunay out;
  out.udg = referenceUnitDiskGraph(points, opts.radius);
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
  const ReferenceGrid grid(points, opts.radius);
  const unsigned threads = util::resolveThreads(opts.threads);

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
              const int lo = std::min(v, w);
              const int hi = std::max(v, w);
              const Vec2 pu = points[static_cast<std::size_t>(u)];
              const Vec2 pv = points[static_cast<std::size_t>(lo)];
              const Vec2 pw = points[static_cast<std::size_t>(hi)];
              bool empty = true;
              for (const int base : {u, lo, hi}) {
                for (int x : khop[static_cast<std::size_t>(base)]) {
                  if (x == u || x == lo || x == hi) continue;
                  if (circumcircleContains(pu, pv, pw, points[static_cast<std::size_t>(x)])) {
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
      std::vector<Vec2> mids;
      mids.reserve(edges.size());
      for (const auto& [u, v] : edges) {
        mids.push_back(geom::midpoint(points[static_cast<std::size_t>(u)],
                                      points[static_cast<std::size_t>(v)]));
      }
      const ReferenceGrid midGrid(mids, opts.radius);
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

// --- Checks ---------------------------------------------------------------

void expectSameGraph(const graph::GeometricGraph& got, const graph::GeometricGraph& want,
                     const std::string& what) {
  ASSERT_EQ(got.numNodes(), want.numNodes()) << what;
  EXPECT_EQ(got.positions(), want.positions()) << what;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(got.numNodes()); ++v) {
    const auto g = got.neighbors(v);
    const auto w = want.neighbors(v);
    ASSERT_EQ(std::vector<graph::NodeId>(g.begin(), g.end()),
              std::vector<graph::NodeId>(w.begin(), w.end()))
        << what << " node " << v;
  }
}

/// Compares every field; returns the reference's removed crossings.
int expectParity(const std::vector<Vec2>& points, const LDelOptions& opts,
                 const std::string& what) {
  const auto want = referenceLocalizedDelaunay(points, opts);
  const auto got = buildLocalizedDelaunay(points, opts);
  expectSameGraph(got.udg, want.udg, what + " udg");
  expectSameGraph(got.graph, want.graph, what + " graph");
  EXPECT_EQ(got.triangles, want.triangles) << what;
  EXPECT_EQ(got.gabrielEdges, want.gabrielEdges) << what;
  EXPECT_EQ(got.removedCrossings, want.removedCrossings) << what;
  return want.removedCrossings;
}

LDelOptions optionsFor(const scenario::Scenario& sc) {
  LDelOptions opts;
  opts.radius = sc.radius;
  opts.reliableRadius = sc.radius;
  return opts;
}

// --- Cases ----------------------------------------------------------------

TEST(LdelParity, GridQueriesListTheReferenceOrder) {
  for (const auto& gen : testkit::generators()) {
    const auto sc = gen.make(1);
    const spatial::GridIndex grid(sc.points, sc.radius);
    const ReferenceGrid ref(sc.points, sc.radius);
    for (int i = 0; i < static_cast<int>(sc.points.size()); i += 7) {
      for (const double r : {0.3 * sc.radius, sc.radius, 2.5 * sc.radius}) {
        const Vec2 center = sc.points[static_cast<std::size_t>(i)];
        ASSERT_EQ(grid.queryRadius(center, r), ref.queryRadius(center, r))
            << gen.name << " node " << i;
      }
    }
    expectSameGraph(buildUnitDiskGraph(sc.points, sc.radius),
                    referenceUnitDiskGraph(sc.points, sc.radius), std::string(gen.name) + " udg");
  }
  // Around y = -2^30 the y half of a cell key wraps, so a query's column
  // of keys is no longer ascending.
  std::vector<Vec2> far;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) far.push_back({0.37 * i - 2.0, 0.37 * j - 1073741826.0});
  }
  const spatial::GridIndex grid(far, 1.0);
  const ReferenceGrid ref(far, 1.0);
  for (const Vec2 center : far) {
    ASSERT_EQ(grid.queryRadius(center, 1.0), ref.queryRadius(center, 1.0));
  }
}

TEST(LdelParity, TestkitGeneratorsMatchTheReference) {
  int removed = 0;
  for (const auto& gen : testkit::generators()) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto sc = gen.make(seed);
      removed += expectParity(sc.points, optionsFor(sc),
                              std::string(gen.name) + " seed " + std::to_string(seed));
    }
  }
  // The collinear generator's near-degenerate inputs make the
  // planarization drop edges, so victim choice is compared too.
  EXPECT_GT(removed, 0);
}

TEST(LdelParity, LocalityQudgPlanarizeAndThreads) {
  int removed = 0;
  int dropped = 0;
  for (const auto& gen : testkit::generators()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const auto sc = gen.make(seed);
      for (const int k : {1, 2, 3}) {
        for (const bool qudg : {false, true}) {
          for (const bool planarize : {true, false}) {
            for (const int threads : {1, 4}) {
              LDelOptions opts = optionsFor(sc);
              opts.k = k;
              opts.planarize = planarize;
              opts.threads = threads;
              if (qudg) {
                opts.reliableRadius = 0.6 * sc.radius;
                opts.dropProbability = 0.35;
                opts.dropSeed = static_cast<unsigned>(seed) + 11;
              }
              const std::string what = std::string(gen.name) + " seed " + std::to_string(seed) +
                                       " k " + std::to_string(k) + (qudg ? " qudg" : "") +
                                       (planarize ? "" : " unplanarized") + " threads " +
                                       std::to_string(threads);
              removed += expectParity(sc.points, opts, what);
              if (qudg && k == 2 && planarize && threads == 1) {
                dropped += static_cast<int>(delaunay::buildUnitDiskGraph(sc.points, sc.radius)
                                                .numEdges() -
                                            buildLocalizedDelaunay(sc.points, opts).udg.numEdges());
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(removed, 0);
  EXPECT_GT(dropped, 0);
}

TEST(LdelParity, EveryUdgTriangleAtKZero) {
  // k = 0 tests no candidate, so every UDG triangle is kept and the
  // planarization resolves hundreds of crossings, Gabriel-aware.
  int removed = 0;
  for (const char* name : {"random_udg", "collinear", "cocircular"}) {
    const auto* gen = testkit::findGenerator(name);
    ASSERT_NE(gen, nullptr) << name;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto sc = gen->make(seed);
      LDelOptions opts = optionsFor(sc);
      opts.k = 0;
      removed += expectParity(sc.points, opts, std::string(name) + " k 0 seed " + std::to_string(seed));
    }
  }
  EXPECT_GT(removed, 100);
}

}  // namespace
}  // namespace hybrid::delaunay
