// Unit tests for 2-D geometry: vectors, bounding boxes, hull, diameter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "geom/bbox.hpp"
#include "geom/hull.hpp"
#include "geom/point.hpp"
#include "point_sets.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

// --------------------------------------------------------------------- Vec2

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vec2{0.5, 1.0}));
}

TEST(Vec2, DotAndNorm) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(Vec2, Distances) {
  const Vec2 a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dist_sq(a, b), 25.0);
  EXPECT_DOUBLE_EQ(dist(a, b), 5.0);
}

TEST(Vec2, UnitAt) {
  const Vec2 e = unit_at(0.0);
  EXPECT_NEAR(e.x, 1.0, 1e-12);
  EXPECT_NEAR(e.y, 0.0, 1e-12);
  const Vec2 n = unit_at(3.14159265358979323846 / 2.0);
  EXPECT_NEAR(n.x, 0.0, 1e-12);
  EXPECT_NEAR(n.y, 1.0, 1e-12);
}

// --------------------------------------------------------------------- BBox

TEST(BBox, EmptyByDefault) {
  const BBox b;
  EXPECT_TRUE(b.empty());
  EXPECT_DOUBLE_EQ(b.extent(), 0.0);
  EXPECT_FALSE(b.contains({0.0, 0.0}));
}

TEST(BBox, ExtendAndQuery) {
  BBox b;
  b.extend({1.0, 2.0});
  b.extend({-1.0, 5.0});
  EXPECT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.width(), 2.0);
  EXPECT_DOUBLE_EQ(b.height(), 3.0);
  EXPECT_DOUBLE_EQ(b.extent(), 3.0);
  EXPECT_TRUE(b.contains({0.0, 3.0}));
  EXPECT_FALSE(b.contains({2.0, 3.0}));
}

TEST(BBox, OfSpan) {
  const std::vector<Vec2> pts = {{0, 0}, {2, 1}, {1, 4}};
  const BBox b = BBox::of(pts);
  EXPECT_DOUBLE_EQ(b.lo.x, 0.0);
  EXPECT_DOUBLE_EQ(b.hi.y, 4.0);
}

// --------------------------------------------------------------------- hull

TEST(Hull, SquareWithInteriorPoint) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}};
  const std::vector<Vec2> hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 4u);
  for (const Vec2 v : hull) {
    EXPECT_TRUE((v.x == 0.0 || v.x == 1.0) && (v.y == 0.0 || v.y == 1.0));
  }
}

TEST(Hull, DegenerateInputs) {
  EXPECT_TRUE(convex_hull(std::vector<Vec2>{}).empty());
  EXPECT_EQ(convex_hull(std::vector<Vec2>{{1, 1}}).size(), 1u);
  EXPECT_EQ(convex_hull(std::vector<Vec2>{{1, 1}, {2, 2}}).size(), 2u);
  // Duplicates collapse.
  EXPECT_EQ(convex_hull(std::vector<Vec2>{{1, 1}, {1, 1}}).size(), 1u);
}

TEST(Hull, CollinearPointsReduceToExtremes) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  const std::vector<Vec2> hull = convex_hull(pts);
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_DOUBLE_EQ(dist(hull[0], hull[1]), std::sqrt(18.0));
}

TEST(Diameter, KnownCases) {
  EXPECT_DOUBLE_EQ(diameter(std::vector<Vec2>{}), 0.0);
  EXPECT_DOUBLE_EQ(diameter(std::vector<Vec2>{{5, 5}}), 0.0);
  EXPECT_DOUBLE_EQ(diameter(std::vector<Vec2>{{0, 0}, {3, 4}}), 5.0);
  const std::vector<Vec2> square = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(diameter(square), std::sqrt(2.0));
}

TEST(Diameter, MatchesBruteForceOnRandomSets) {
  // The exact double sqrt(max dist_sq): the octagon prefilter must never
  // drop a point the hull needs.
  Rng rng(77);
  std::vector<point_sets::NamedSet> sets = point_sets::hard_point_sets();
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts;
    const std::size_t n = 3 + rng.uniform_int(std::uint64_t{60});
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    }
    sets.push_back({"random trial " + std::to_string(trial), pts});
  }
  sets.push_back({"uniform 4096", point_sets::uniform(4096, 128.0, rng)});
  // Points on the octagon's own edges: a diamond of lattice points plus
  // its interior.
  {
    std::vector<Vec2> diamond;
    for (int x = -10; x <= 10; ++x) {
      for (int y = -10; y <= 10; ++y) {
        if (std::abs(x) + std::abs(y) <= 10) {
          diamond.push_back({static_cast<double>(x), static_cast<double>(y)});
        }
      }
    }
    sets.push_back({"lattice diamond", diamond});
  }
  for (const auto& [name, pts] : sets) {
    EXPECT_EQ(diameter(pts), std::sqrt(point_sets::brute_max_sq(pts))) << name;
  }
}

TEST(Diameter, RingDiameterIsTwiceRadius) {
  std::vector<Vec2> pts;
  const int n = 64;  // even point count: antipodal pairs exist exactly
  for (int i = 0; i < n; ++i) {
    pts.push_back(5.0 * unit_at(2.0 * 3.14159265358979323846 * i / n));
  }
  EXPECT_NEAR(diameter(pts), 10.0, 1e-9);
}

}  // namespace
}  // namespace fcr
