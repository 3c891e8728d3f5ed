// Golden digests of buildLocalizedDelaunay on seeded inputs: the UDG and
// LDel^k adjacency lists (in order), the k-localized triangles, the Gabriel
// edges and the number of edges the planarization dropped. The builder's
// internals may change for speed, but hole detection, the subdivision and
// every route read the adjacency order, so the output must stay
// bit-identical. The digests were recorded before the mark-based triangle
// tests, the neighbour-list Gabriel tests and the single-pass planarization
// landed.
//
// Inputs are built from raw std::mt19937 words and integer arithmetic only,
// so they are the same on every standard library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "delaunay/ldel.hpp"

namespace hybrid::delaunay {
namespace {

std::uint64_t fnv(std::uint64_t h, std::int64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(std::uint64_t h, const graph::GeometricGraph& g) {
  h = fnv(h, static_cast<std::int64_t>(g.numNodes()));
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.numNodes()); ++v) {
    h = fnv(h, g.degree(v));
    for (const graph::NodeId w : g.neighbors(v)) h = fnv(h, w);
  }
  return h;
}

std::uint64_t digest(const LocalizedDelaunay& l) {
  std::uint64_t h = 1469598103934665603ull;
  h = digest(h, l.udg);
  h = digest(h, l.graph);
  h = fnv(h, static_cast<std::int64_t>(l.triangles.size()));
  for (const auto& t : l.triangles) {
    for (const int v : t) h = fnv(h, v);
  }
  h = fnv(h, static_cast<std::int64_t>(l.gabrielEdges.size()));
  for (const auto& [u, v] : l.gabrielEdges) h = fnv(fnv(h, u), v);
  return fnv(h, l.removedCrossings);
}

/// `count` distinct points on a 1e-4 lattice in [0, side)^2.
std::vector<geom::Vec2> randomPoints(unsigned seed, int count, int side) {
  std::mt19937 rng(seed);
  const auto cells = static_cast<std::uint32_t>(side) * 10000u;
  std::vector<geom::Vec2> pts;
  while (pts.size() < static_cast<std::size_t>(count)) {
    const geom::Vec2 p{static_cast<double>(rng() % cells) * 1e-4,
                       static_cast<double>(rng() % cells) * 1e-4};
    if (std::find(pts.begin(), pts.end(), p) == pts.end()) pts.push_back(p);
  }
  return pts;
}

/// A 14 x 14 lattice of spacing 0.5: every unit cell is cocircular, so
/// both diagonals pass the emptiness test and the planarization must
/// resolve the crossings.
std::vector<geom::Vec2> grid14() {
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < 14; ++y) {
    for (int x = 0; x < 14; ++x) pts.push_back({0.5 * x, 0.5 * y});
  }
  return pts;
}

/// Three near-parallel rows of 40 points on the line y = x / 3, 0.15
/// apart, each coordinate jittered by a multiple of 1e-12 of at most
/// 1e-9: collinear triples and thin triangles everywhere.
std::vector<geom::Vec2> collinearRows() {
  std::mt19937 rng(40);
  std::vector<geom::Vec2> pts;
  for (int row = 0; row < 3; ++row) {
    for (int i = 0; i < 40; ++i) {
      const double x = 0.2 * i + 0.07 * row;
      const double jx = static_cast<double>(static_cast<int>(rng() % 2001) - 1000) * 1e-12;
      const double jy = static_cast<double>(static_cast<int>(rng() % 2001) - 1000) * 1e-12;
      pts.push_back({x + jx, x / 3.0 + 0.15 * row + jy});
    }
  }
  return pts;
}

TEST(LdelGolden, BuildsMatchRecordedDigests) {
  struct Case {
    const char* name;
    std::vector<geom::Vec2> pts;
    LDelOptions opts;
    std::size_t triangles;
    int removedCrossings;
    std::uint64_t digest;
  };
  auto options = [](int k, bool planarize, double dropProbability) {
    LDelOptions o;
    o.k = k;
    o.planarize = planarize;
    if (dropProbability > 0.0) {
      o.reliableRadius = 0.6;
      o.dropProbability = dropProbability;
      o.dropSeed = 7;
    }
    return o;
  };
  const auto random400 = randomPoints(400, 400, 12);
  const std::vector<Case> cases = {
      {"random400 k2", random400, options(2, true, 0.0), 533, 0,
       0x1b3777b9e0d50b41ull},
      {"random400 k1", random400, options(1, true, 0.0), 537, 0,
       0x89b1d1c62992f886ull},
      {"random400 k3", random400, options(3, true, 0.0), 533, 0,
       0x1b3777b9e0d50b41ull},
      {"random400 qudg", random400, options(2, true, 0.3), 365, 0,
       0xc6eafcd34ffbed92ull},
      {"random400 k0", random400, options(0, true, 0.0), 2863, 703,
       0x998c09874ead8245ull},
      {"grid14 k2", grid14(), options(2, true, 0.0), 1012, 313,
       0x4d5339b4364cee33ull},
      {"grid14 k2 unplanarized", grid14(), options(2, false, 0.0), 1012, 0,
       0xadeea50b940b7ee2ull},
      {"collinear120 k2", collinearRows(), options(2, true, 0.0), 203, 0,
       0x220b500f95e078d0ull},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 4}) {
      LDelOptions opts = c.opts;
      opts.threads = threads;
      const auto l = buildLocalizedDelaunay(c.pts, opts);
      EXPECT_EQ(l.triangles.size(), c.triangles) << c.name << " threads " << threads;
      EXPECT_EQ(l.removedCrossings, c.removedCrossings) << c.name << " threads " << threads;
      EXPECT_EQ(digest(l), c.digest) << c.name << " threads " << threads << std::hex
                                     << " digest 0x" << digest(l);
    }
  }
}

}  // namespace
}  // namespace hybrid::delaunay
