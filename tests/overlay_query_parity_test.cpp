#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "core/hybrid_network.hpp"
#include "delaunay/triangulation.hpp"
#include "geom/bbox.hpp"
#include "graph/csr.hpp"
#include "graph/dijkstra_workspace.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "routing/overlay_graph.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"
#include "testkit/generators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/rng.hpp"

namespace hybrid::routing {
namespace {

constexpr double kEps = 1e-9;

/// Faithful replica of the pre-engine serving path: rebuild the query
/// graph (sites + endpoints) from the overlay's public state and run one
/// Dijkstra over it. This is what OverlayGraph did per query before the
/// incremental engine; the parity suite pins the new engine against it.
struct LegacyAnswer {
  bool reachable = false;
  double distance = std::numeric_limits<double>::infinity();
  std::vector<graph::NodeId> waypoints;
  std::uint64_t visTests = 0;  ///< visible() calls the replica made.
};

LegacyAnswer legacyQuery(const OverlayGraph& overlay, geom::Vec2 from, geom::Vec2 to) {
  const auto& sitePos = overlay.sitePositions();
  const auto& siteAdj = overlay.siteAdjacency();
  const auto& vis = overlay.visibility();
  const int ns = static_cast<int>(sitePos.size());

  int fromSite = -1;
  int toSite = -1;
  for (int i = 0; i < ns; ++i) {
    if (sitePos[static_cast<std::size_t>(i)] == from) fromSite = i;
    if (sitePos[static_cast<std::size_t>(i)] == to) toSite = i;
  }

  std::vector<geom::Vec2> pts = sitePos;
  const int fromIdx = fromSite >= 0 ? fromSite : static_cast<int>(pts.size());
  if (fromSite < 0) pts.push_back(from);
  int toIdx = toSite >= 0 ? toSite : static_cast<int>(pts.size());
  if (toSite < 0 && !(from == to)) pts.push_back(to);
  if (toSite < 0 && from == to) toIdx = fromIdx;

  LegacyAnswer ans;
  graph::GeometricGraph g(pts);
  if (overlay.edgeMode() == EdgeMode::Visibility || pts.size() < 3) {
    for (int i = 0; i < ns; ++i) {
      for (int j : siteAdj[static_cast<std::size_t>(i)]) {
        if (j > i) g.addEdge(i, j);
      }
    }
    for (const int endpoint : {fromIdx, toIdx}) {
      if (endpoint < ns) continue;
      for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
        if (i == endpoint) continue;
        ++ans.visTests;
        if (vis.visible(pts[static_cast<std::size_t>(endpoint)],
                        pts[static_cast<std::size_t>(i)])) {
          g.addEdge(endpoint, i);
        }
      }
    }
  } else {
    const delaunay::DelaunayTriangulation dt(pts);
    for (const auto& [u, v] : dt.edges()) {
      ++ans.visTests;
      if (vis.visible(pts[static_cast<std::size_t>(u)], pts[static_cast<std::size_t>(v)])) {
        g.addEdge(u, v);
      }
    }
    for (const auto& [u, v] : overlay.backboneEdges()) g.addEdge(u, v);
  }

  const auto tree = graph::dijkstra(g, fromIdx, toIdx);
  ans.distance = tree.dist[static_cast<std::size_t>(toIdx)];
  const auto path = tree.pathTo(toIdx);
  if (path.empty() && fromIdx != toIdx) return ans;
  ans.reachable = true;
  for (graph::NodeId v : path) {
    if (v == fromIdx || v == toIdx) continue;
    if (v < static_cast<int>(overlay.sites().size())) {
      ans.waypoints.push_back(overlay.sites()[static_cast<std::size_t>(v)]);
    }
  }
  return ans;
}

/// Euclidean length of from -> waypoints -> to in the LDel embedding.
double polylineLength(const core::HybridNetwork& net, geom::Vec2 from, geom::Vec2 to,
                      const std::vector<graph::NodeId>& waypoints) {
  double len = 0.0;
  geom::Vec2 prev = from;
  for (graph::NodeId w : waypoints) {
    const geom::Vec2 p = net.ldel().position(w);
    len += geom::dist(prev, p);
    prev = p;
  }
  return len + geom::dist(prev, to);
}

struct ParityCase {
  unsigned seed;
  std::vector<geom::Polygon> obstacles;
};

std::vector<ParityCase> parityCases() {
  std::vector<ParityCase> cases;
  cases.push_back({11, {scenario::rectangleObstacle({5, 5}, {9, 9})}});
  cases.push_back({12, {scenario::regularPolygonObstacle({7, 7}, 2.5, 6)}});
  cases.push_back({13, {scenario::uShapeObstacle({7, 6}, 5.0, 4.0, 1.0)}});
  cases.push_back({14,
                   {scenario::rectangleObstacle({3, 3}, {6, 6}),
                    scenario::rectangleObstacle({8, 8}, {11, 11})}});
  cases.push_back({15,
                   {scenario::regularPolygonObstacle({4.5, 9}, 2.0, 5),
                    scenario::regularPolygonObstacle({10, 4.5}, 2.0, 7, 0.3)}});
  return cases;
}

/// 5 networks x 2 edge modes x 2 site modes x 12 query pairs = 240 seeded
/// scenarios: new engine vs the legacy rebuild-per-query replica. The
/// Delaunay engine reuses the build-time verdicts of the site-site edges
/// and computes the rest exactly as the replica does, so its answers must
/// be bit-identical; the replica still tests every edge, so it stays an
/// independent reference.
TEST(OverlayParity, IncrementalEngineMatchesLegacyRebuild) {
  const bool obsWas = obs::enabled();
  obs::setEnabled(true);
  auto& visRun = obs::Registry::global().counter("overlay.vis_tests.run");
  std::uint64_t delaunayVisTests = 0;
  std::uint64_t legacyDelaunayVisTests = 0;
  int checked = 0;
  for (const auto& pc : parityCases()) {
    scenario::ScenarioParams p;
    p.width = p.height = 14.0;
    p.seed = pc.seed;
    p.obstacles = pc.obstacles;
    const auto sc = scenario::makeScenario(p);
    const core::HybridNetwork net(sc.points);
    for (const EdgeMode em : {EdgeMode::Visibility, EdgeMode::Delaunay}) {
      for (const SiteMode sm : {SiteMode::HullNodes, SiteMode::AllHoleNodes}) {
        const auto router = net.makeRouter({sm, em, true});
        const OverlayGraph& overlay = router->overlay();
        ASSERT_FALSE(overlay.sites().empty()) << "seed=" << pc.seed;
        EXPECT_EQ(overlay.servesIncrementally(), em == EdgeMode::Visibility);

        std::mt19937 rng(pc.seed * 1000 + static_cast<unsigned>(em) * 10 +
                         static_cast<unsigned>(sm));
        std::uniform_real_distribution<double> d(0.5, 13.5);
        std::uniform_int_distribution<int> pickSite(
            0, static_cast<int>(overlay.sites().size()) - 1);
        for (int q = 0; q < 12; ++q) {
          geom::Vec2 a{d(rng), d(rng)};
          geom::Vec2 b{d(rng), d(rng)};
          // Mix in site-coincident endpoints: they exercise the cost-0
          // entry and the pure label-lookup branches.
          if (q % 4 == 1) a = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
          if (q % 4 == 2) b = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
          if (q % 12 == 3) b = a;

          const auto legacy = legacyQuery(overlay, a, b);
          const auto runBefore = visRun.value();
          const auto fresh = overlay.waypointsWithDistance(a, b);

          ++checked;
          ASSERT_EQ(fresh.reachable, legacy.reachable)
              << "seed=" << pc.seed << " q=" << q;
          if (em == EdgeMode::Delaunay) {
            if (!(a == b)) {
              delaunayVisTests += visRun.value() - runBefore;
              legacyDelaunayVisTests += legacy.visTests;
            }
            EXPECT_EQ(fresh.distance, legacy.distance) << "seed=" << pc.seed << " q=" << q;
            EXPECT_EQ(fresh.waypoints, legacy.waypoints) << "seed=" << pc.seed << " q=" << q;
          }
          if (!fresh.reachable) continue;
          EXPECT_NEAR(fresh.distance, legacy.distance, kEps)
              << "seed=" << pc.seed << " q=" << q;
          if (fresh.waypoints != legacy.waypoints) {
            // Equal-length shortest paths may tie-break differently (the
            // labels group FP additions differently than one sequential
            // Dijkstra); both must still realize the optimal distance.
            EXPECT_NEAR(polylineLength(net, a, b, fresh.waypoints), legacy.distance, 1e-6)
                << "seed=" << pc.seed << " q=" << q;
            EXPECT_NEAR(polylineLength(net, a, b, legacy.waypoints), legacy.distance, 1e-6)
                << "seed=" << pc.seed << " q=" << q;
          }
          // The combined solve agrees with the split entry points.
          const auto wp = overlay.waypoints(a, b);
          ASSERT_TRUE(wp.has_value());
          EXPECT_EQ(*wp, fresh.waypoints);
          EXPECT_NEAR(overlay.overlayDistance(a, b), fresh.distance, kEps);
        }
      }
    }
  }
  EXPECT_GE(checked, 200);
  // Only the edges touching an endpoint are tested per query (about 18x
  // fewer than the replica's every-edge tests on these networks).
  EXPECT_GT(delaunayVisTests, 0u);
  EXPECT_LT(delaunayVisTests * 4, legacyDelaunayVisTests);
  obs::setEnabled(obsWas);
}

/// The hub-label backend against ground truth: every site pair against a
/// per-source Dijkstra over the site CSR, plus end-to-end queries against
/// the rebuilt query graph, across the full parity-case matrix. Ties may
/// pick different hubs than the reference Dijkstra, so waypoint lists are
/// compared by realized length.
TEST(OverlayParity, HubLabelBackendMatchesDijkstra) {
  int checked = 0;
  for (const auto& pc : parityCases()) {
    scenario::ScenarioParams p;
    p.width = p.height = 14.0;
    p.seed = pc.seed;
    p.obstacles = pc.obstacles;
    const auto sc = scenario::makeScenario(p);
    const core::HybridNetwork net(sc.points);
    for (const SiteMode sm : {SiteMode::HullNodes, SiteMode::AllHoleNodes}) {
      const auto router = net.makeRouter({sm, EdgeMode::Visibility, true});
      const OverlayGraph& labels = router->overlay();
      ASSERT_TRUE(labels.servesIncrementally());

      const int h = static_cast<int>(labels.sites().size());
      ASSERT_GT(h, 0) << "seed=" << pc.seed;
      const graph::CsrAdjacency csr =
          graph::buildCsr(labels.siteAdjacency(), labels.sitePositions());
      graph::DijkstraWorkspace dijkstra;
      for (int i = 0; i < h; ++i) {
        dijkstra.run(csr, i);
        for (int j = 0; j < h; ++j) {
          const double d = dijkstra.dist(j);
          const double l = labels.sitePairDistance(i, j);
          if (std::isinf(d)) {
            EXPECT_TRUE(std::isinf(l)) << "seed=" << pc.seed << " pair " << i << "," << j;
          } else {
            EXPECT_NEAR(l, d, 1e-9 * std::max(1.0, d))
                << "seed=" << pc.seed << " pair " << i << "," << j;
          }
        }
      }

      std::mt19937 rng(pc.seed * 7919 + static_cast<unsigned>(sm));
      std::uniform_real_distribution<double> d(0.5, 13.5);
      std::uniform_int_distribution<int> pickSite(0, h - 1);
      for (int q = 0; q < 12; ++q) {
        geom::Vec2 a{d(rng), d(rng)};
        geom::Vec2 b{d(rng), d(rng)};
        if (q % 4 == 1) a = labels.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
        if (q % 4 == 2) {
          a = labels.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
          b = labels.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
        }
        const auto ref = testkit::referenceOverlayQuery(labels, a, b);
        const auto fresh = labels.waypointsWithDistance(a, b);
        ++checked;
        ASSERT_EQ(fresh.reachable, ref.reachable) << "seed=" << pc.seed << " q=" << q;
        if (!fresh.reachable) continue;
        EXPECT_NEAR(fresh.distance, ref.distance, 1e-6) << "seed=" << pc.seed << " q=" << q;
        if (fresh.waypoints != ref.waypoints) {
          EXPECT_NEAR(polylineLength(net, a, b, fresh.waypoints), ref.distance, 1e-6)
              << "seed=" << pc.seed << " q=" << q;
        }
      }
    }
  }
  EXPECT_GE(checked, 100);
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HYBRID_PARITY_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HYBRID_PARITY_SANITIZED 1
#endif

/// A dense h x h site table stops paying off in the thousands of sites
/// (an earlier backend refused overlays above 4096 sites and fell back to
/// a per-query rebuild). Hub labels have no such ceiling: a ring of sites
/// above that size serves incrementally and matches the rebuild ground
/// truth. Release builds run 4288 sites; Debug/sanitizer builds run 576 so
/// the same code path fits their runtime budget.
TEST(OverlayParity, SitesAboveDenseCapServeIncrementallyViaLabels) {
#if defined(NDEBUG) && !defined(HYBRID_PARITY_SANITIZED)
  const int n = 4288;
#else
  const int n = 576;
#endif
  // Sites on a circle around a square obstacle whose corners nearly touch
  // it: visibility windows stay local, so construction and queries remain
  // cheap at thousands of sites.
  std::vector<geom::Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n;
    pts.push_back({4.0 * std::cos(a), 4.0 * std::sin(a)});
  }
  graph::GeometricGraph ldel(pts);
  std::vector<graph::NodeId> ring(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ring[static_cast<std::size_t>(i)] = i;
  const double r = 4.0 * 0.9995;
  std::vector<geom::Polygon> obstacles = {geom::Polygon({{r, 0}, {0, r}, {-r, 0}, {0, -r}})};
  const OverlayGraph overlay(ldel, {ring}, obstacles, EdgeMode::Visibility);

  ASSERT_EQ(overlay.sites().size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(overlay.servesIncrementally());
  // The label slab must undercut a dense table's footprint
  // (h^2 doubles + h^2 int32 predecessors).
  EXPECT_LT(overlay.hubLabels().labelBytes(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n) * 12 / 4);

  std::mt19937 rng(29);
  std::uniform_real_distribution<double> d(-5.0, 5.0);
  std::uniform_int_distribution<int> pickSite(0, n - 1);
  for (int q = 0; q < 6; ++q) {
    geom::Vec2 a{d(rng), d(rng)};
    geom::Vec2 b{d(rng), d(rng)};
    if (q % 2 == 1) {
      a = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
      b = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
    }
    const auto ref = testkit::referenceOverlayQuery(overlay, a, b);
    const auto fresh = overlay.waypointsWithDistance(a, b);
    ASSERT_EQ(fresh.reachable, ref.reachable) << "q=" << q;
    if (!fresh.reachable) continue;
    EXPECT_NEAR(fresh.distance, ref.distance, 1e-6) << "q=" << q;
  }
}

/// Regression for the grazing-segment class: queries whose endpoint-site
/// segments run exactly along hull edges or through hull corners. The
/// engine tests visibility endpoint-first; before the orientation fix the
/// asymmetric visible() verdicts on such segments made the incremental
/// answer diverge from the rebuild. Exact coordinates, no jitter: two
/// axis-aligned square hulls with aligned edge lines, hand-picked queries
/// collinear with the shared edge lines and diagonals through corners,
/// checked in both orientations and both edge modes against the testkit's
/// rebuild + dijkstra ground truth.
TEST(OverlayParity, GrazingSegmentsMatchRebuild) {
  // Two square holes; the corridor x in [2, 4] separates them. Extra
  // corridor nodes keep the "LDel" point set more than just hull corners.
  const std::vector<geom::Vec2> pts = {
      {0, 0}, {2, 0}, {2, 2}, {0, 2},  // square A corners (sites 0-3)
      {4, 0}, {6, 0}, {6, 2}, {4, 2},  // square B corners (sites 4-7)
      {3, 1}, {3, 3}, {3, -1},         // corridor nodes
  };
  graph::GeometricGraph ldel(pts);
  const std::vector<std::vector<graph::NodeId>> rings = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  const std::vector<geom::Polygon> holes = {
      geom::Polygon({{0, 0}, {2, 0}, {2, 2}, {0, 2}}),
      geom::Polygon({{4, 0}, {6, 0}, {6, 2}, {4, 2}}),
  };

  const std::vector<std::pair<geom::Vec2, geom::Vec2>> queries = {
      {{-1, 0}, {7, 0}},    // collinear with both bottom edges (y = 0)
      {{-1, 2}, {7, 2}},    // collinear with both top edges (y = 2)
      {{-1, -1}, {3, 3}},   // diagonal through corner (2, 2)
      {{3, -1}, {7, 3}},    // diagonal through corner (4, 0)... grazing B
      {{2, 3}, {4, -1}},    // crosses the corridor touching both hulls
      {{-1, 1}, {7, 1}},    // blocked by both holes: must route around
      {{2, 0}, {4, 2}},     // site corner to site corner across the gap
      {{3, 1}, {3, 3}},     // node-coincident endpoints in the corridor
  };

  for (const EdgeMode em : {EdgeMode::Visibility, EdgeMode::Delaunay}) {
    const OverlayGraph overlay(ldel, rings, holes, em);
    ASSERT_EQ(overlay.sites().size(), 8u);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto [a, b] = queries[q];
      for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        const auto ref = testkit::referenceOverlayQuery(overlay, from, to);
        const auto fresh = overlay.waypointsWithDistance(from, to);
        ASSERT_EQ(fresh.reachable, ref.reachable)
            << "mode=" << static_cast<int>(em) << " q=" << q;
        if (em == EdgeMode::Delaunay) {
          EXPECT_EQ(fresh.distance, ref.distance) << "q=" << q;
          EXPECT_EQ(fresh.waypoints, ref.waypoints) << "q=" << q;
        }
        if (!fresh.reachable) continue;
        EXPECT_NEAR(fresh.distance, ref.distance, 1e-9)
            << "mode=" << static_cast<int>(em) << " q=" << q;
        if (fresh.waypoints != ref.waypoints) {
          double len = 0.0;
          geom::Vec2 prev = from;
          for (graph::NodeId w : fresh.waypoints) {
            len += geom::dist(prev, ldel.position(w));
            prev = ldel.position(w);
          }
          len += geom::dist(prev, to);
          EXPECT_NEAR(len, ref.distance, 1e-9)
              << "mode=" << static_cast<int>(em) << " q=" << q;
        }
      }
    }
  }
}

/// Degenerate site sets: exactly cocircular rings and collinear rows with
/// 0 / 1e-9 / 1e-6 jitter. Their Delaunay tie-breaking depends on the whole
/// point set, so inserting the endpoints can produce site-site edges the
/// build-time triangulation never had; those lookup misses are tested at
/// query time. The answers must still be bit-identical to the testkit's
/// rebuild, which tests every edge, and the miss branch must have run.
TEST(OverlayParity, DegenerateSitesDelaunayMatchesRebuild) {
  const bool obsWas = obs::enabled();
  obs::setEnabled(true);
  auto& misses = obs::Registry::global().counter("overlay.vis_tests.lookup_miss");
  const auto missesBefore = misses.value();
  int checked = 0;
  for (const char* name : {"cocircular", "collinear"}) {
    const auto* gen = testkit::findGenerator(name);
    ASSERT_NE(gen, nullptr) << name;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto sc = gen->make(seed);
      const core::HybridNetwork net(sc.points, sc.radius);
      for (const SiteMode sm : {SiteMode::HullNodes, SiteMode::AllHoleNodes}) {
        const auto router = net.makeRouter({sm, EdgeMode::Delaunay, true});
        const OverlayGraph& overlay = router->overlay();
        if (overlay.sites().empty()) continue;
        const auto& ldel = net.ldel();
        const auto bbox = geom::BBox::of(ldel.positions());
        std::mt19937_64 rng(testkit::deriveSeed(seed, 0x64656765));
        std::uniform_real_distribution<double> dx(bbox.lo.x, bbox.hi.x);
        std::uniform_real_distribution<double> dy(bbox.lo.y, bbox.hi.y);
        std::uniform_int_distribution<int> pickNode(0, static_cast<int>(ldel.numNodes()) - 1);
        for (int q = 0; q < 12; ++q) {
          geom::Vec2 a{dx(rng), dy(rng)};
          geom::Vec2 b{dx(rng), dy(rng)};
          if (q % 2 == 1) {  // node-coincident endpoints, sites included
            a = ldel.position(pickNode(rng));
            b = ldel.position(pickNode(rng));
          }
          const auto ref = testkit::referenceOverlayQuery(overlay, a, b);
          const auto fresh = overlay.waypointsWithDistance(a, b);
          ++checked;
          ASSERT_EQ(fresh.reachable, ref.reachable) << name << " seed=" << seed << " q=" << q;
          EXPECT_EQ(fresh.distance, ref.distance) << name << " seed=" << seed << " q=" << q;
          EXPECT_EQ(fresh.waypoints, ref.waypoints) << name << " seed=" << seed << " q=" << q;
        }
      }
    }
  }
  EXPECT_GE(checked, 200);
  EXPECT_GT(misses.value(), missesBefore);
  obs::setEnabled(obsWas);
}

/// Endpoints outside the sites' bounding box would change the builder's
/// super-triangle, so those Delaunay queries triangulate from empty
/// instead of resuming the kept DT(sites) build. Both paths must answer
/// bit-identically to the testkit's fresh rebuild, and
/// overlay.query.prefix_miss must count exactly the from-empty queries.
TEST(OverlayParity, DelaunayEndpointsOutsideSiteBoxMatchRebuild) {
  const bool obsWas = obs::enabled();
  obs::setEnabled(true);
  auto& rebuilds = obs::Registry::global().counter("overlay.query.rebuild");
  auto& prefixMisses = obs::Registry::global().counter("overlay.query.prefix_miss");
  const auto rebuildsBefore = rebuilds.value();
  const auto missesBefore = prefixMisses.value();

  scenario::ScenarioParams p;
  p.width = p.height = 20.0;
  p.seed = 91;
  p.obstacles.push_back(scenario::rectangleObstacle({5.0, 5.0}, {9.0, 8.0}));
  p.obstacles.push_back(scenario::regularPolygonObstacle({13.5, 12.5}, 2.5, 7));
  const auto sc = scenario::makeScenario(p);
  const core::HybridNetwork net(sc.points);
  const auto router = net.makeRouter({SiteMode::HullNodes, EdgeMode::Delaunay, true});
  const OverlayGraph& overlay = router->overlay();
  ASSERT_GE(overlay.sites().size(), 3u);
  const auto siteBox = geom::BBox::of(overlay.sitePositions());
  const auto deployBox = geom::BBox::of(net.ldel().positions());

  // The outer boundary's hull nodes are sites too, so the sites' box is
  // about the deployment's; endpoints are drawn from a box 30% wider.
  const double mx = 0.15 * deployBox.width();
  const double my = 0.15 * deployBox.height();
  std::mt19937_64 rng(testkit::deriveSeed(91, 0x6f757473));
  std::uniform_real_distribution<double> dx(deployBox.lo.x - mx, deployBox.hi.x + mx);
  std::uniform_real_distribution<double> dy(deployBox.lo.y - my, deployBox.hi.y + my);
  std::uniform_int_distribution<int> pickSite(0, static_cast<int>(overlay.sites().size()) - 1);
  std::uint64_t expectMisses = 0;
  int queries = 0;
  for (int q = 0; q < 80; ++q) {
    geom::Vec2 a{dx(rng), dy(rng)};
    geom::Vec2 b{dx(rng), dy(rng)};
    if (q % 4 == 1) a = overlay.sitePositions()[static_cast<std::size_t>(pickSite(rng))];
    if (q % 4 == 2) b = {deployBox.lo.x - mx, deployBox.hi.y};  // off the left side
    const auto ref = testkit::referenceOverlayQuery(overlay, a, b);
    const auto fresh = overlay.waypointsWithDistance(a, b);
    ++queries;
    if (!siteBox.contains(a) || !siteBox.contains(b)) ++expectMisses;
    ASSERT_EQ(fresh.reachable, ref.reachable) << "q=" << q;
    EXPECT_EQ(fresh.distance, ref.distance) << "q=" << q;
    EXPECT_EQ(fresh.waypoints, ref.waypoints) << "q=" << q;
  }
  const auto misses = prefixMisses.value() - missesBefore;
  EXPECT_EQ(rebuilds.value() - rebuildsBefore, static_cast<std::uint64_t>(queries));
  EXPECT_EQ(misses, expectMisses);
  EXPECT_GT(misses, 10u);                                       // from empty
  EXPECT_GT(static_cast<std::uint64_t>(queries) - misses, 10u);  // resumed
  obs::setEnabled(obsWas);
}

/// The same failure class hunted statistically: the hull_tangent generator
/// builds low-jitter twin-rectangle deployments whose hole hulls run
/// parallel and nearly touch, so endpoint visibility segments keep grazing
/// hull corners. Full-pipeline networks, engine vs rebuild ground truth.
TEST(OverlayParity, HullTangentSweepMatchesRebuild) {
  int checked = 0;
  const auto* gen = testkit::findGenerator("hull_tangent");
  ASSERT_NE(gen, nullptr);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sc = gen->make(seed);
    const core::HybridNetwork net(sc.points, sc.radius);
    const auto router = net.makeRouter({SiteMode::HullNodes, EdgeMode::Visibility, true});
    const OverlayGraph& overlay = router->overlay();
    if (overlay.sites().empty()) continue;

    // Probe along the tangent band: horizontal sweeps at the hull top/
    // bottom edge heights plus random endpoints around them.
    const auto bbox = geom::BBox::of(net.ldel().positions());
    std::mt19937_64 rng(testkit::deriveSeed(seed, 0x74616e67));
    std::uniform_real_distribution<double> dx(bbox.lo.x, bbox.hi.x);
    std::uniform_real_distribution<double> dy(bbox.lo.y, bbox.hi.y);
    for (int q = 0; q < 12; ++q) {
      const geom::Vec2 a{dx(rng), dy(rng)};
      const geom::Vec2 b{dx(rng), dy(rng)};
      const auto ref = testkit::referenceOverlayQuery(overlay, a, b);
      const auto fresh = overlay.waypointsWithDistance(a, b);
      ASSERT_EQ(fresh.reachable, ref.reachable) << "seed=" << seed << " q=" << q;
      if (fresh.reachable) {
        EXPECT_NEAR(fresh.distance, ref.distance, 1e-6) << "seed=" << seed << " q=" << q;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 36);
}

}  // namespace
}  // namespace hybrid::routing
