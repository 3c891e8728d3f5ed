// Cross-validation of the filtered/exact predicates against independent
// exact integer arithmetic (__int128). Points are snapped to a grid so
// every coordinate and intermediate product is exactly representable; the
// integer evaluation is then ground truth.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>

#include "geom/expansion.hpp"
#include "geom/predicates.hpp"
#include "testkit/rng.hpp"

namespace hybrid::geom {
namespace {

using I128 = __int128;

int sign128(I128 v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }

// orient as exact integer determinant; coordinates must be integers.
int orientInt(long ax, long ay, long bx, long by, long cx, long cy) {
  const I128 det = static_cast<I128>(ax - cx) * (by - cy) -
                   static_cast<I128>(ay - cy) * (bx - cx);
  return sign128(det);
}

// inCircle as exact integer 3x3 determinant (lifted coordinates).
int inCircleInt(long ax, long ay, long bx, long by, long cx, long cy, long dx, long dy) {
  const I128 adx = ax - dx, ady = ay - dy;
  const I128 bdx = bx - dx, bdy = by - dy;
  const I128 cdx = cx - dx, cdy = cy - dy;
  const I128 alift = adx * adx + ady * ady;
  const I128 blift = bdx * bdx + bdy * bdy;
  const I128 clift = cdx * cdx + cdy * cdy;
  const I128 det = alift * (bdx * cdy - cdx * bdy) + blift * (cdx * ady - adx * cdy) +
                   clift * (adx * bdy - bdx * ady);
  return sign128(det);
}

class CrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(CrossValidation, OrientMatchesIntegerTruth) {
  auto rng = testkit::loggedRng("predicates-crossvalidation",
                                static_cast<unsigned>(GetParam()) * 101 + 7);
  // Mix of ranges; small ranges produce many exact collinearities.
  const long ranges[] = {4, 64, 100000};
  for (const long range : ranges) {
    std::uniform_int_distribution<long> d(-range, range);
    for (int it = 0; it < 800; ++it) {
      const long ax = d(rng), ay = d(rng), bx = d(rng), by = d(rng), cx = d(rng),
                 cy = d(rng);
      const int expected = orientInt(ax, ay, bx, by, cx, cy);
      const int got = orient({static_cast<double>(ax), static_cast<double>(ay)},
                             {static_cast<double>(bx), static_cast<double>(by)},
                             {static_cast<double>(cx), static_cast<double>(cy)});
      ASSERT_EQ(got, expected) << ax << "," << ay << " " << bx << "," << by << " " << cx
                               << "," << cy;
    }
  }
}

TEST_P(CrossValidation, InCircleMatchesIntegerTruth) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 131 + 11);
  const long ranges[] = {3, 32, 20000};
  for (const long range : ranges) {
    std::uniform_int_distribution<long> d(-range, range);
    for (int it = 0; it < 500; ++it) {
      const long ax = d(rng), ay = d(rng), bx = d(rng), by = d(rng), cx = d(rng),
                 cy = d(rng), dx = d(rng), dy = d(rng);
      const int expected = inCircleInt(ax, ay, bx, by, cx, cy, dx, dy);
      const int got = inCircle({static_cast<double>(ax), static_cast<double>(ay)},
                               {static_cast<double>(bx), static_cast<double>(by)},
                               {static_cast<double>(cx), static_cast<double>(cy)},
                               {static_cast<double>(dx), static_cast<double>(dy)});
      ASSERT_EQ(got, expected);
    }
  }
}

TEST_P(CrossValidation, GabrielPredicateMatchesIntegerTruth) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 53 + 3);
  std::uniform_int_distribution<long> d(-40, 40);
  for (int it = 0; it < 800; ++it) {
    const long ax = d(rng), ay = d(rng), bx = d(rng), by = d(rng), px = d(rng),
               py = d(rng);
    // p strictly inside diametral circle of ab iff (a-p).(b-p) < 0.
    const I128 dot = static_cast<I128>(ax - px) * (bx - px) +
                     static_cast<I128>(ay - py) * (by - py);
    const bool expected = dot < 0;
    const bool got = inDiametralCircle({static_cast<double>(ax), static_cast<double>(ay)},
                                       {static_cast<double>(bx), static_cast<double>(by)},
                                       {static_cast<double>(px), static_cast<double>(py)});
    ASSERT_EQ(got, expected);
  }
}

// The Gabriel predicate in expansion arithmetic only: the unfiltered
// evaluation the float filter in front of it must agree with.
bool inDiametralCircleUnfiltered(Vec2 a, Vec2 b, Vec2 d) {
  const Expansion adx = Expansion::twoDiff(a.x, d.x);
  const Expansion ady = Expansion::twoDiff(a.y, d.y);
  const Expansion bdx = Expansion::twoDiff(b.x, d.x);
  const Expansion bdy = Expansion::twoDiff(b.y, d.y);
  return (adx * bdx + ady * bdy).sign() < 0;
}

TEST_P(CrossValidation, GabrielFilterAgreesWithExactOnAndNearTheCircle) {
  std::mt19937_64 rng(static_cast<unsigned>(GetParam()) * 977 + 11);
  std::uniform_real_distribution<double> coord(-50.0, 50.0);
  std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
  std::uniform_real_distribution<double> offset(-1e-9, 1e-9);
  int onCircle = 0;
  for (int it = 0; it < 2000; ++it) {
    const Vec2 a{coord(rng), coord(rng)};
    const Vec2 b{coord(rng), coord(rng)};
    const Vec2 m{0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
    const double r = 0.5 * std::hypot(b.x - a.x, b.y - a.y);
    const double t = angle(rng);
    const Vec2 onc{m.x + r * std::cos(t), m.y + r * std::sin(t)};
    // Random, rounded onto the circle, within 1e-9 of it, and exactly on
    // it (Thales: b = d + s * perp(a - d) on integer coordinates).
    const long ix = static_cast<long>(coord(rng)), iy = static_cast<long>(coord(rng));
    const long jx = static_cast<long>(coord(rng)), jy = static_cast<long>(coord(rng));
    const long s = 1 + it % 5;
    const Vec2 ta{static_cast<double>(jx), static_cast<double>(jy)};
    const Vec2 td{static_cast<double>(ix), static_cast<double>(iy)};
    const Vec2 tb{static_cast<double>(ix - s * (jy - iy)), static_cast<double>(iy + s * (jx - ix))};
    const std::array<std::array<Vec2, 3>, 4> cases{{{a, b, {coord(rng), coord(rng)}},
                                                    {a, b, onc},
                                                    {a, b, {onc.x + offset(rng), onc.y + offset(rng)}},
                                                    {ta, tb, td}}};
    for (const auto& [p, q, d] : cases) {
      ASSERT_EQ(inDiametralCircle(p, q, d), inDiametralCircleUnfiltered(p, q, d))
          << "a " << p << " b " << q << " d " << d;
    }
    onCircle += inDiametralCircle(ta, tb, td) ? 0 : 1;
  }
  EXPECT_EQ(onCircle, 2000);  // exactly on the circle is not strictly inside
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValidation, ::testing::Range(0, 6));

}  // namespace
}  // namespace hybrid::geom
