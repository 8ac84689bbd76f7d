// Spatial grid tests: every query is validated against brute force over
// several deployment shapes, including the stretched exponential chain that
// motivates the adaptive cell size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "geom/grid.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

std::vector<Vec2> random_points(std::size_t n, double side, Rng& rng) {
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return pts;
}

/// Geometrically stretched line: adversarial for fixed-cell grids.
std::vector<Vec2> stretched_points(std::size_t n) {
  std::vector<Vec2> pts;
  double x = 0.0, gap = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({x, 0.1 * static_cast<double>(i % 3)});
    x += gap;
    gap *= 1.8;
  }
  return pts;
}

NodeId brute_nearest(const std::vector<Vec2>& pts, Vec2 q, NodeId exclude) {
  NodeId best = kInvalidNode;
  double best_sq = std::numeric_limits<double>::infinity();
  for (NodeId i = 0; i < pts.size(); ++i) {
    if (i == exclude) continue;
    const double d2 = dist_sq(q, pts[i]);
    if (d2 < best_sq) {
      best_sq = d2;
      best = i;
    }
  }
  return best;
}

TEST(Grid, EmptySubset) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 1}};
  const SpatialGrid grid(pts, std::vector<NodeId>{});
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_FALSE(grid.nearest({0, 0}).has_value());
  EXPECT_TRUE(grid.in_disk({0, 0}, 100.0).empty());
  EXPECT_EQ(grid.count_in_annulus({0, 0}, 0.0, 100.0), 0u);
}

TEST(Grid, SinglePoint) {
  const std::vector<Vec2> pts = {{2.0, 3.0}};
  const SpatialGrid grid(pts);
  const auto nn = grid.nearest({0, 0});
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->id, 0u);
  EXPECT_NEAR(nn->distance, std::sqrt(13.0), 1e-12);
  // Excluding the only point leaves nothing.
  EXPECT_FALSE(grid.nearest({0, 0}, 0).has_value());
}

TEST(Grid, NearestMatchesBruteForceOnUniformPoints) {
  Rng rng(1);
  const auto pts = random_points(300, 50.0, rng);
  const SpatialGrid grid(pts);
  for (NodeId q = 0; q < pts.size(); ++q) {
    const auto got = grid.nearest(pts[q], q);
    ASSERT_TRUE(got.has_value());
    const NodeId want = brute_nearest(pts, pts[q], q);
    EXPECT_DOUBLE_EQ(dist(pts[got->id], pts[q]), dist(pts[want], pts[q]));
  }
}

TEST(Grid, NearestMatchesBruteForceOnStretchedChain) {
  const auto pts = stretched_points(40);
  const SpatialGrid grid(pts);
  for (NodeId q = 0; q < pts.size(); ++q) {
    const auto got = grid.nearest(pts[q], q);
    ASSERT_TRUE(got.has_value());
    const NodeId want = brute_nearest(pts, pts[q], q);
    EXPECT_DOUBLE_EQ(dist(pts[got->id], pts[q]), dist(pts[want], pts[q]))
        << "query " << q;
  }
}

TEST(Grid, NearestFromFarOutsideTheBounds) {
  Rng rng(2);
  const auto pts = random_points(50, 10.0, rng);
  const SpatialGrid grid(pts);
  const Vec2 far{1000.0, -500.0};
  const auto got = grid.nearest(far);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, brute_nearest(pts, far, kInvalidNode));
}

TEST(Grid, NearestDistanceAgrees) {
  Rng rng(3);
  const auto pts = random_points(100, 20.0, rng);
  const SpatialGrid grid(pts);
  for (NodeId q = 0; q < 20; ++q) {
    const auto d = grid.nearest_distance(pts[q], q);
    ASSERT_TRUE(d.has_value());
    EXPECT_NEAR(*d, dist(pts[q], pts[brute_nearest(pts, pts[q], q)]), 1e-12);
  }
}

TEST(Grid, InDiskMatchesBruteForce) {
  Rng rng(4);
  const auto pts = random_points(200, 30.0, rng);
  const SpatialGrid grid(pts);
  for (const double radius : {0.5, 3.0, 10.0, 100.0}) {
    for (NodeId q = 0; q < 10; ++q) {
      auto got = grid.in_disk(pts[q], radius, q);
      std::sort(got.begin(), got.end());
      std::vector<NodeId> want;
      for (NodeId i = 0; i < pts.size(); ++i) {
        if (i != q && dist(pts[i], pts[q]) <= radius) want.push_back(i);
      }
      EXPECT_EQ(got, want) << "radius " << radius << " query " << q;
    }
  }
}

TEST(Grid, CountInDiskAndAnnulusMatchBruteForce) {
  Rng rng(5);
  const auto pts = random_points(200, 30.0, rng);
  const SpatialGrid grid(pts);
  for (NodeId q = 0; q < 10; ++q) {
    for (const double inner : {0.0, 1.0, 4.0}) {
      const double outer = inner * 2.0 + 1.0;
      std::size_t want = 0;
      for (NodeId i = 0; i < pts.size(); ++i) {
        if (i == q) continue;
        const double d = dist(pts[i], pts[q]);
        if (d > inner && d <= outer) ++want;
      }
      EXPECT_EQ(grid.count_in_annulus(pts[q], inner, outer, q), want);
    }
    std::size_t disk_want = 0;
    for (NodeId i = 0; i < pts.size(); ++i) {
      if (i != q && dist(pts[i], pts[q]) <= 5.0) ++disk_want;
    }
    EXPECT_EQ(grid.count_in_disk(pts[q], 5.0, q), disk_want);
  }
}

TEST(Grid, AnnulusBoundarySemantics) {
  // Annulus is (inner, outer]: a point exactly at the inner radius is
  // excluded, exactly at the outer radius included.
  const std::vector<Vec2> pts = {{1.0, 0.0}, {2.0, 0.0}};
  const SpatialGrid grid(pts);
  EXPECT_EQ(grid.count_in_annulus({0, 0}, 1.0, 2.0), 1u);  // only (2,0)
  EXPECT_EQ(grid.count_in_annulus({0, 0}, 0.5, 1.0), 1u);  // only (1,0)
}

TEST(Grid, InvalidAnnulusThrows) {
  const std::vector<Vec2> pts = {{0, 0}};
  const SpatialGrid grid(pts);
  EXPECT_THROW(grid.count_in_annulus({0, 0}, 2.0, 1.0), std::invalid_argument);
}

TEST(Grid, SubsetQueriesIgnoreUnindexedPoints) {
  const std::vector<Vec2> pts = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const std::vector<NodeId> subset = {0, 2};
  const SpatialGrid grid(pts, subset);
  EXPECT_EQ(grid.size(), 2u);
  const auto nn = grid.nearest({0.9, 0.0});
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->id, 0u);  // point 1 is not indexed
  EXPECT_EQ(grid.count_in_disk({0, 0}, 10.0), 2u);
}

TEST(Grid, CoincidentPointsAreAllFound) {
  const std::vector<Vec2> pts = {{1, 1}, {1, 1}, {1, 1}};
  const SpatialGrid grid(pts);
  EXPECT_EQ(grid.count_in_disk({1, 1}, 0.0), 3u);
  const auto nn = grid.nearest({1, 1}, 0);
  ASSERT_TRUE(nn.has_value());
  EXPECT_DOUBLE_EQ(nn->distance, 0.0);
}

TEST(Grid, OutOfRangeSubsetIdThrows) {
  const std::vector<Vec2> pts = {{0, 0}};
  EXPECT_THROW(SpatialGrid(pts, std::vector<NodeId>{5}), std::invalid_argument);
}

TEST(Grid, NonFiniteCoordinatesThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SpatialGrid(std::vector<Vec2>{{0, 0}, {nan, 1}}),
               std::invalid_argument);
  EXPECT_THROW(SpatialGrid(std::vector<Vec2>{{0, 0}, {1, -inf}}),
               std::invalid_argument);
  // Finite coordinates whose bounding box extent overflows.
  EXPECT_THROW(SpatialGrid(std::vector<Vec2>{{1e308, 0}, {-1e308, 0}}),
               std::invalid_argument);
  // Only indexed points are checked.
  const std::vector<Vec2> pts = {{0, 0}, {nan, nan}, {1, 1}};
  EXPECT_EQ(SpatialGrid(pts, std::vector<NodeId>{0, 2}).size(), 2u);
}

/// Smallest-id nearest neighbour among `alive`, by brute force.
SpatialGrid::Nearest brute_nearest_alive(const std::vector<Vec2>& pts,
                                         const std::vector<bool>& alive,
                                         Vec2 q, NodeId exclude) {
  SpatialGrid::Nearest best{kInvalidNode, std::numeric_limits<double>::infinity()};
  double best_sq = std::numeric_limits<double>::infinity();
  for (NodeId i = 0; i < pts.size(); ++i) {
    if (!alive[i] || i == exclude) continue;
    const double d2 = dist_sq(q, pts[i]);
    if (d2 < best_sq) {
      best_sq = d2;
      best = {i, std::sqrt(d2)};
    }
  }
  return best;
}

TEST(Grid, FlatLayoutQueriesMatchBruteForceAfterRemovals) {
  // Crowded cells (a tight cluster), exact distance ties (a lattice) and an
  // offset far larger than the spacing, then interleaved swap-erases; every
  // query, the closest-pair sweep included, is checked against brute force
  // over the survivors.
  Rng rng(6);
  std::vector<Vec2> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({1e6 + rng.uniform(0.0, 60.0), -1e6 + rng.uniform(0.0, 60.0)});
  }
  for (int i = 0; i < 100; ++i) {
    pts.push_back({1e6 + 30.0 + rng.uniform(0.0, 0.5),
                   -1e6 + 30.0 + rng.uniform(0.0, 0.5)});
  }
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      pts.push_back({1e6 + 4.0 * x, -1e6 + 4.0 * y});
    }
  }
  SpatialGrid grid(pts);
  std::vector<bool> alive(pts.size(), true);
  std::vector<NodeId> order(pts.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(std::uint64_t{i})]);
  }

  std::size_t removed = 0;
  for (int phase = 0; phase < 4; ++phase) {
    for (std::size_t k = 0; k < 80; ++k, ++removed) {
      const NodeId id = order[removed];
      ASSERT_TRUE(grid.remove(id, pts[id]));
      EXPECT_FALSE(grid.remove(id, pts[id]));
      alive[id] = false;
    }
    ASSERT_EQ(grid.size(), pts.size() - removed);

    // The pair sweep skips removed entries: never below the survivors'
    // minimum, and equal to it when certified.
    double min_sq = std::numeric_limits<double>::infinity();
    for (NodeId i = 0; i < pts.size(); ++i) {
      for (NodeId j = i + 1; j < pts.size(); ++j) {
        if (alive[i] && alive[j]) min_sq = std::min(min_sq, dist_sq(pts[i], pts[j]));
      }
    }
    const SpatialGrid::PairSweep sweep = grid.closest_pair_sweep();
    EXPECT_GE(sweep.best_sq, min_sq) << "phase " << phase;
    if (sweep.certified) {
      EXPECT_EQ(sweep.best_sq, min_sq) << "phase " << phase;
    }

    std::vector<std::pair<Vec2, NodeId>> queries;
    for (NodeId id = 0; id < pts.size(); id += 3) queries.emplace_back(pts[id], id);
    for (int i = 0; i < 20; ++i) {
      queries.emplace_back(Vec2{1e6 + rng.uniform(-100.0, 160.0),
                                -1e6 + rng.uniform(-100.0, 160.0)},
                           kInvalidNode);
    }
    for (const auto& [q, exclude] : queries) {
      const auto got = grid.nearest(q, exclude);
      const SpatialGrid::Nearest want = brute_nearest_alive(pts, alive, q, exclude);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->id, want.id) << "phase " << phase;
      EXPECT_EQ(got->distance, want.distance) << "phase " << phase;
      for (const double r : {0.3, 2.0, 4.0, 25.0}) {
        std::size_t disk = 0;
        std::size_t annulus = 0;
        for (NodeId i = 0; i < pts.size(); ++i) {
          if (!alive[i] || i == exclude) continue;
          const double d2 = dist_sq(q, pts[i]);
          if (d2 <= r * r) ++disk;
          if (d2 > (r / 2) * (r / 2) && d2 <= r * r) ++annulus;
        }
        EXPECT_EQ(grid.count_in_disk(q, r, exclude), disk) << "r " << r;
        EXPECT_EQ(grid.count_in_annulus(q, r / 2, r, exclude), annulus)
            << "r " << r;
      }
    }
  }
}

}  // namespace
}  // namespace fcr
