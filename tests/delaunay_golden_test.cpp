// Golden digests of DelaunayTriangulation on seeded inputs: the triangle
// list (vertices and adjacency, in builder order) and the edge list. The
// builder's internals may change for speed, but callers index triangles
// and rely on the exact tie-breaking of degenerate inputs, so its output
// must stay bit-identical. The digests were recorded before the builder's
// per-insert scratch was made reusable.
//
// Inputs are built from raw std::mt19937 words and integer arithmetic only,
// so they are the same on every standard library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "delaunay/triangulation.hpp"

namespace hybrid::delaunay {
namespace {

std::uint64_t fnv(std::uint64_t h, std::int64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(const DelaunayTriangulation& dt) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv(h, static_cast<std::int64_t>(dt.triangles().size()));
  for (const Triangle& t : dt.triangles()) {
    for (const int v : t.v) h = fnv(h, v);
    for (const int a : t.adj) h = fnv(h, a);
  }
  const auto edges = dt.edges();
  h = fnv(h, static_cast<std::int64_t>(edges.size()));
  for (const auto& [u, v] : edges) h = fnv(fnv(h, u), v);
  return h;
}

/// 122 distinct points on a 1e-4 lattice in [0, 50)^2.
std::vector<geom::Vec2> randomPoints() {
  std::mt19937 rng(122);
  std::vector<geom::Vec2> pts;
  while (pts.size() < 122) {
    const geom::Vec2 p{static_cast<double>(rng() % 500000) * 1e-4,
                       static_cast<double>(rng() % 500000) * 1e-4};
    if (std::find(pts.begin(), pts.end(), p) == pts.end()) pts.push_back(p);
  }
  return pts;
}

bool upperHalf(std::int64_t x, std::int64_t y) { return y > 0 || (y == 0 && x > 0); }

/// 64 exactly cocircular lattice points: x^2 + y^2 = 1625^2 has 84 integer
/// solutions; the first 64 in counter-clockwise order from (1625, 0).
std::vector<geom::Vec2> cocircularRing() {
  constexpr std::int64_t r = 1625;
  std::vector<std::pair<std::int64_t, std::int64_t>> sol;
  for (std::int64_t x = -r; x <= r; ++x) {
    const std::int64_t rest = r * r - x * x;
    std::int64_t y = 0;
    while ((y + 1) * (y + 1) <= rest) ++y;
    if (y * y != rest) continue;
    sol.emplace_back(x, y);
    if (y != 0) sol.emplace_back(x, -y);
  }
  // Exact angular order: the upper half-plane first, then by cross product.
  std::sort(sol.begin(), sol.end(), [](const auto& a, const auto& b) {
    const bool ua = upperHalf(a.first, a.second);
    const bool ub = upperHalf(b.first, b.second);
    if (ua != ub) return ua;
    return a.first * b.second - a.second * b.first > 0;
  });
  EXPECT_EQ(sol.size(), 84u);
  std::vector<geom::Vec2> pts;
  for (std::size_t i = 0; i < 64; ++i) {
    pts.push_back({static_cast<double>(sol[i].first), static_cast<double>(sol[i].second)});
  }
  return pts;
}

std::vector<geom::Vec2> grid12() {
  std::vector<geom::Vec2> pts;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  }
  return pts;
}

/// A multiple of 1e-12 in [-1e-9, 1e-9].
double jitter(std::mt19937& rng) {
  return static_cast<double>(static_cast<int>(rng() % 2001) - 1000) * 1e-12;
}

/// 48 points on the line y = x / 2 + 1, each coordinate jittered by at
/// most 1e-9, plus two points on either side of the line so the
/// triangulation is not empty.
std::vector<geom::Vec2> collinearJitter() {
  std::mt19937 rng(48);
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 48; ++i) {
    const double x = 0.25 * i;
    const double jx = jitter(rng);
    const double jy = jitter(rng);
    pts.push_back({x + jx, 0.5 * x + 1.0 + jy});
  }
  const geom::Vec2 offLine[] = {{2.0, 4.0}, {9.0, 7.5}, {3.0, -1.0}, {10.0, 2.0}};
  pts.insert(pts.end(), std::begin(offLine), std::end(offLine));
  return pts;
}

TEST(DelaunayGolden, TrianglesAndEdgesMatchRecordedDigests) {
  struct Case {
    const char* name;
    std::vector<geom::Vec2> pts;
    std::size_t triangles;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"random122", randomPoints(), 231, 0x33f3981dc19744dbull},
      {"cocircular64", cocircularRing(), 62, 0x5de32f15b8dccc3dull},
      {"grid12x12", grid12(), 242, 0x5a87e7de40327646ull},
      {"collinear48", collinearJitter(), 96, 0x82a30173297b26f5ull},
  };
  for (const Case& c : cases) {
    const DelaunayTriangulation dt(c.pts);
    EXPECT_EQ(dt.triangles().size(), c.triangles) << c.name;
    EXPECT_EQ(digest(dt), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace hybrid::delaunay
