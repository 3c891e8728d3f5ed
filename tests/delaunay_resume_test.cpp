// DelaunayPrefix resumes a kept DT(sites) build with up to two extra
// points. Whatever the inputs, the result must be exactly what a fresh
// DelaunayTriangulation(sites + extras) lists: the same triangles (vertices
// and adjacency, in builder order) and the same edges. Extras inside the
// sites' closed bounding box resume; extras outside it build from empty.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "delaunay/triangulation.hpp"
#include "geom/bbox.hpp"

namespace hybrid::delaunay {
namespace {

using geom::Vec2;

/// 120 distinct points on a 1e-4 lattice in [0, 50)^2.
std::vector<Vec2> randomPoints() {
  std::mt19937 rng(120);
  std::vector<Vec2> pts;
  while (pts.size() < 120) {
    const Vec2 p{static_cast<double>(rng() % 500000) * 1e-4,
                 static_cast<double>(rng() % 500000) * 1e-4};
    if (std::find(pts.begin(), pts.end(), p) == pts.end()) pts.push_back(p);
  }
  return pts;
}

/// 42 of the 84 lattice points on x^2 + y^2 = 1625^2 (every other one in
/// the order of x), all exactly cocircular.
std::vector<Vec2> cocircularRing() {
  constexpr std::int64_t r = 1625;
  std::vector<Vec2> pts;
  for (std::int64_t x = -r; x <= r; ++x) {
    const std::int64_t rest = r * r - x * x;
    std::int64_t y = 0;
    while ((y + 1) * (y + 1) <= rest) ++y;
    if (y * y != rest) continue;
    pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    if (y != 0) pts.push_back({static_cast<double>(x), static_cast<double>(-y)});
  }
  EXPECT_EQ(pts.size(), 84u);
  std::vector<Vec2> half;
  for (std::size_t i = 0; i < pts.size(); i += 2) half.push_back(pts[i]);
  return half;
}

std::vector<Vec2> grid10() {
  std::vector<Vec2> pts;
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  }
  return pts;
}

/// 40 points on y = x / 2 + 1, each coordinate jittered by a multiple of
/// 1e-12 in [-1e-9, 1e-9], plus two points off the line.
std::vector<Vec2> collinearJitter() {
  std::mt19937 rng(40);
  const auto jitter = [&] {
    return static_cast<double>(static_cast<int>(rng() % 2001) - 1000) * 1e-12;
  };
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i) {
    const double x = 0.25 * i;
    const double jx = jitter();
    const double jy = jitter();
    pts.push_back({x + jx, 0.5 * x + 1.0 + jy});
  }
  pts.push_back({2.0, 4.0});
  pts.push_back({9.0, 2.0});
  return pts;
}

/// Candidate extras for `sites`: interior points, points exactly on the
/// box boundary (corners and edge midpoints) and points outside it; those
/// that coincide with a site are dropped.
std::vector<Vec2> candidateExtras(const std::vector<Vec2>& sites) {
  const geom::BBox box = geom::BBox::of(sites);
  const Vec2 c = box.center();
  const double w = box.width();
  const double h = box.height();
  std::vector<Vec2> out = {
      c,
      {box.lo.x + 0.3125 * w, box.lo.y + 0.6875 * h},
      {box.lo.x + 0.8125 * w, box.lo.y + 0.1875 * h},
      box.lo,
      box.hi,
      {box.lo.x, box.hi.y},
      {box.hi.x, c.y},
      {c.x, box.lo.y},
      {box.hi.x + 0.25 * w, c.y},
      {c.x, box.lo.y - 0.5 * h - 1.0},
  };
  std::erase_if(out, [&](Vec2 p) {
    return std::find(sites.begin(), sites.end(), p) != sites.end();
  });
  return out;
}

void expectSameTriangles(const std::vector<Triangle>& got, const std::vector<Triangle>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t].v, want[t].v) << what << " triangle " << t;
    EXPECT_EQ(got[t].adj, want[t].adj) << what << " triangle " << t;
  }
}

struct Input {
  const char* name;
  std::vector<Vec2> sites;
};

std::vector<Input> inputs() {
  return {
      {"random120", randomPoints()},
      {"cocircular42", cocircularRing()},
      {"grid10x10", grid10()},
      {"collinear42", collinearJitter()},
  };
}

TEST(DelaunayResume, PrefixSiteTriangulationMatchesFreshBuild) {
  for (const Input& in : inputs()) {
    const DelaunayPrefix prefix(in.sites);
    const DelaunayTriangulation fresh(in.sites);
    expectSameTriangles(prefix.siteTriangles(), fresh.triangles(), in.name);
    EXPECT_EQ(prefix.siteEdges(), fresh.edges()) << in.name;
  }
}

TEST(DelaunayResume, ResumedTriangulationMatchesFreshBuild) {
  // One workspace for every case, so resumed and from-empty builds also
  // run over each other's stale scratch.
  TriangulationWorkspace ws;
  int resumed = 0;
  int fromEmpty = 0;
  for (const Input& in : inputs()) {
    const DelaunayPrefix prefix(in.sites);
    const auto extras = candidateExtras(in.sites);
    ASSERT_GE(extras.size(), 6u) << in.name;
    std::vector<std::vector<Vec2>> sets = {{}};
    for (std::size_t i = 0; i < extras.size(); ++i) {
      sets.push_back({extras[i]});
      for (std::size_t j = 0; j < extras.size(); ++j) {
        if (j != i) sets.push_back({extras[i], extras[j]});
      }
    }
    for (const auto& set : sets) {
      std::string what = std::string(in.name) + " extras";
      for (const Vec2 p : set) what += " (" + std::to_string(p.x) + "," + std::to_string(p.y) + ")";
      std::vector<Vec2> all = in.sites;
      all.insert(all.end(), set.begin(), set.end());
      const DelaunayTriangulation fresh(all);

      const bool inside =
          std::all_of(set.begin(), set.end(), [&](Vec2 p) { return prefix.covers(p); });
      EXPECT_EQ(prefix.triangulate(set, ws), inside) << what;
      ++(inside ? resumed : fromEmpty);
      expectSameTriangles(ws.triangles(), fresh.triangles(), what);
      EXPECT_EQ(ws.edges(), fresh.edges()) << what;
    }
  }
  // Both paths ran: extras on the box boundary resume, outside ones not.
  EXPECT_GT(resumed, 100);
  EXPECT_GT(fromEmpty, 50);
}

TEST(DelaunayResume, FewerThanThreeSitesBuildFromEmpty) {
  TriangulationWorkspace ws;
  const std::vector<Vec2> two = {{0.0, 0.0}, {4.0, 2.0}};
  const DelaunayPrefix prefix(two);
  EXPECT_FALSE(prefix.covers({2.0, 1.0}));
  EXPECT_TRUE(prefix.siteTriangles().empty());
  const std::vector<Vec2> extras = {{1.0, 1.5}, {3.0, 0.0}};
  EXPECT_FALSE(prefix.triangulate(extras, ws));
  std::vector<Vec2> all = two;
  all.insert(all.end(), extras.begin(), extras.end());
  const DelaunayTriangulation fresh(all);
  expectSameTriangles(ws.triangles(), fresh.triangles(), "two sites");
  EXPECT_EQ(ws.edges(), fresh.edges());
  // Two sites and no extras: no triangle, as for a fresh build.
  EXPECT_FALSE(prefix.triangulate({}, ws));
  EXPECT_TRUE(ws.triangles().empty());
  EXPECT_TRUE(ws.edges().empty());
}

}  // namespace
}  // namespace hybrid::delaunay
