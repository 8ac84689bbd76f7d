// Deployment and generator tests: link statistics against brute force,
// normalization semantics, and the contract of every generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "deploy/deployment.hpp"
#include "deploy/generators.hpp"
#include "geom/grid.hpp"
#include "point_sets.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

using point_sets::brute_max_sq;
using point_sets::brute_min_sq;

/// min_link and max_link must be the EXACT doubles sqrt(min dist_sq) and
/// sqrt(max dist_sq) over all pairs: no tolerance.
void expect_exact_link_stats(const Deployment& dep, const std::string& what) {
  if (dep.size() < 2) return;
  EXPECT_EQ(dep.min_link(), std::sqrt(brute_min_sq(dep.positions()))) << what;
  EXPECT_EQ(dep.max_link(), std::sqrt(brute_max_sq(dep.positions()))) << what;
}

TEST(Deployment, LinkStatisticsMatchBruteForce) {
  // Every generator kind, raw and normalized.
  Rng rng(100);
  const std::size_t sizes[] = {2, 3, 5, 17, 64, 257, 1024};
  for (const std::size_t n : sizes) {
    const double side = 2.0 * std::sqrt(static_cast<double>(n));
    std::size_t rows = 1;
    for (std::size_t r = 1; r * r <= n; ++r) {
      if (n % r == 0) rows = r;
    }
    const std::size_t levels = std::min<std::size_t>(4, n / 2);
    std::vector<std::pair<std::string, Deployment>> deps;
    deps.emplace_back("uniform_square", uniform_square(n, side, rng));
    deps.emplace_back("uniform_disk", uniform_disk(n, side / 2.0, rng));
    deps.emplace_back("perturbed_grid",
                      perturbed_grid(rows, n / rows, 1.0, 0.2, rng));
    deps.emplace_back("thomas_clusters",
                      thomas_clusters(n, 4, side / 40.0, side, rng));
    deps.emplace_back("exponential_chain", exponential_chain(n, 0x1p20, rng));
    deps.emplace_back("two_clusters", two_clusters(n, 100.0, 2.0, rng));
    deps.emplace_back("ring", ring(n, side, 0.001, rng));
    deps.emplace_back("multi_scale", multi_scale(levels, n / levels, rng));
    deps.emplace_back("poisson_field",
                      poisson_field(1.0, std::sqrt(static_cast<double>(n)), rng));
    if (n == 2) deps.emplace_back("single_pair", single_pair(0.3));
    for (const auto& [kind, dep] : deps) {
      const std::string what = kind + " n=" + std::to_string(n);
      expect_exact_link_stats(dep, what);
      expect_exact_link_stats(dep.normalized(), what + " normalized");
    }
  }
}

TEST(Deployment, SingleNodeHasTrivialStatistics) {
  const Deployment dep({{3.0, 4.0}});
  EXPECT_EQ(dep.size(), 1u);
  EXPECT_DOUBLE_EQ(dep.link_ratio(), 1.0);
  EXPECT_EQ(dep.link_class_count(), 1u);
  EXPECT_TRUE(dep.is_normalized());
}

TEST(Deployment, RejectsEmptyAndDuplicates) {
  EXPECT_THROW(Deployment({}), std::invalid_argument);
  EXPECT_THROW(Deployment({{1, 1}, {1, 1}}), std::invalid_argument);

  // Non-finite coordinates are rejected before any spatial index is built,
  // naming the node — also for a single node.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Vec2>> non_finite = {
      {{0, 0}, {nan, 1}}, {{nan, nan}}, {{0, 0}, {1, 1}, {inf, 0}},
      {{0, -inf}, {1, 1}}};
  for (const auto& pts : non_finite) {
    try {
      const Deployment dep(pts);
      ADD_FAILURE() << "accepted a non-finite position";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("node "), std::string::npos)
          << e.what();
    }
  }

  // Finite coordinates whose longest link overflows a double.
  for (const auto& pts : std::vector<std::vector<Vec2>>{
           {{1e308, 0}, {-1e308, 0}}, {{0, 1e308}, {0, -1e308}, {0, 0}}}) {
    try {
      const Deployment dep(pts);
      ADD_FAILURE() << "accepted an overflowing longest link";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("longest link overflows"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Deployment, PositionAccessIsBoundsChecked) {
  const Deployment dep({{0, 0}, {1, 0}});
  EXPECT_EQ(dep.position(1), (Vec2{1, 0}));
  EXPECT_THROW(dep.position(2), std::invalid_argument);
}

TEST(Deployment, NormalizationSetsShortestLinkToOne) {
  const Deployment dep({{0, 0}, {0, 0.25}, {0, 10.0}});
  EXPECT_FALSE(dep.is_normalized());
  const Deployment norm = dep.normalized();
  EXPECT_TRUE(norm.is_normalized());
  EXPECT_NEAR(norm.min_link(), 1.0, 1e-12);
  // The ratio R is scale invariant.
  EXPECT_NEAR(norm.link_ratio(), dep.link_ratio(), 1e-9);
}

TEST(Deployment, LinkRatioIsScaleInvariant) {
  Rng rng(101);
  const Deployment dep = uniform_square(40, 10.0, rng);
  const Deployment big = dep.scaled(1000.0);
  EXPECT_NEAR(big.link_ratio(), dep.link_ratio(), 1e-6);
  EXPECT_THROW(dep.scaled(0.0), std::invalid_argument);
}

TEST(Deployment, LinkClassCountCoversRatio) {
  // R = 8 exactly: distances 1 and 8 -> classes 0..3 (floor(log2 8) = 3).
  const Deployment dep({{0, 0}, {1, 0}, {9, 0}});
  EXPECT_NEAR(dep.link_ratio(), 9.0, 1e-12);
  EXPECT_EQ(dep.link_class_count(),
            static_cast<std::size_t>(std::floor(std::log2(9.0))) + 1);
}

// ----------------------------------------------------------------generators

TEST(Generators, UniformSquareBounds) {
  Rng rng(102);
  const Deployment dep = uniform_square(500, 42.0, rng);
  EXPECT_EQ(dep.size(), 500u);
  for (const Vec2 p : dep.positions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 42.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 42.0);
  }
}

TEST(Generators, UniformDiskBounds) {
  Rng rng(103);
  const Deployment dep = uniform_disk(500, 7.0, rng);
  for (const Vec2 p : dep.positions()) {
    EXPECT_LE(p.norm(), 7.0 + 1e-12);
  }
}

TEST(Generators, UniformDiskIsAreaUniform) {
  // Half the points should fall within radius R/sqrt(2).
  Rng rng(104);
  const Deployment dep = uniform_disk(20000, 1.0, rng);
  std::size_t inner = 0;
  for (const Vec2 p : dep.positions()) {
    if (p.norm() <= 1.0 / std::sqrt(2.0)) ++inner;
  }
  EXPECT_NEAR(static_cast<double>(inner) / 20000.0, 0.5, 0.02);
}

TEST(Generators, PerturbedGridShapeAndSpacing) {
  Rng rng(105);
  const Deployment dep = perturbed_grid(8, 6, 5.0, 1.0, rng);
  EXPECT_EQ(dep.size(), 48u);
  // Jitter 1.0 < spacing/2, so the minimum link stays >= spacing - 2*jitter.
  EXPECT_GE(dep.min_link(), 5.0 - 2.0 - 1e-12);
  EXPECT_THROW(perturbed_grid(2, 2, 5.0, 2.5, rng), std::invalid_argument);
}

TEST(Generators, ExponentialChainHitsExactSpan) {
  Rng rng(106);
  for (const double span : {64.0, 1024.0, 1048576.0}) {
    const Deployment dep = exponential_chain(32, span, rng);
    EXPECT_EQ(dep.size(), 32u);
    EXPECT_NEAR(dep.min_link(), 1.0, 1e-6);
    EXPECT_NEAR(dep.link_ratio(), span, span * 1e-6);
  }
}

TEST(Generators, ExponentialChainRejectsTightSpan) {
  Rng rng(107);
  EXPECT_THROW(exponential_chain(32, 16.0, rng), std::invalid_argument);
  EXPECT_THROW(exponential_chain(1, 10.0, rng), std::invalid_argument);
}

TEST(Generators, ExponentialChainUniformWhenSpanEqualsGaps) {
  Rng rng(108);
  // span = n - 1 forces q = 1: unit spacing.
  const Deployment dep = exponential_chain(10, 9.0, rng);
  EXPECT_NEAR(dep.link_ratio(), 9.0, 1e-6);
  EXPECT_NEAR(dep.min_link(), 1.0, 1e-6);
}

TEST(Generators, TwoClustersSeparationAndSizes) {
  Rng rng(109);
  const Deployment dep = two_clusters(21, 100.0, 2.0, rng);
  EXPECT_EQ(dep.size(), 21u);
  // Count nodes near each center.
  std::size_t near_a = 0, near_b = 0;
  for (const Vec2 p : dep.positions()) {
    if (dist(p, {0, 0}) <= 2.0 + 1e-9) ++near_a;
    if (dist(p, {100.0, 0}) <= 2.0 + 1e-9) ++near_b;
  }
  EXPECT_EQ(near_a, 11u);
  EXPECT_EQ(near_b, 10u);
  EXPECT_THROW(two_clusters(10, 3.0, 2.0, rng), std::invalid_argument);
}

TEST(Generators, RingRadiusAndCount) {
  Rng rng(110);
  const Deployment dep = ring(24, 10.0, 0.01, rng);
  EXPECT_EQ(dep.size(), 24u);
  for (const Vec2 p : dep.positions()) {
    EXPECT_NEAR(p.norm(), 10.0, 1e-9);
  }
}

TEST(Generators, ThomasClustersCount) {
  Rng rng(111);
  const Deployment dep = thomas_clusters(100, 5, 1.0, 100.0, rng);
  EXPECT_EQ(dep.size(), 100u);
}

TEST(Generators, SinglePair) {
  const Deployment dep = single_pair(3.5);
  EXPECT_EQ(dep.size(), 2u);
  EXPECT_DOUBLE_EQ(dep.min_link(), 3.5);
  EXPECT_DOUBLE_EQ(dep.link_ratio(), 1.0);
  EXPECT_THROW(single_pair(0.0), std::invalid_argument);
}

TEST(Generators, DeterministicUnderSeed) {
  Rng a(42), b(42);
  const Deployment da = uniform_square(50, 10.0, a);
  const Deployment db = uniform_square(50, 10.0, b);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(da.positions()[i], db.positions()[i]);
  }
}

TEST(MinPairwiseDistance, AgreesWithBruteForce) {
  Rng rng(112);
  std::vector<point_sets::NamedSet> sets = point_sets::hard_point_sets();
  sets.push_back({"uniform 80", uniform_square(80, 9.0, rng).positions()});
  std::size_t certified = 0;
  std::size_t fallbacks = 0;
  for (const auto& [name, pts] : sets) {
    const double want_sq = brute_min_sq(pts);
    EXPECT_EQ(min_pairwise_distance(pts), std::sqrt(want_sq)) << name;
    // The sweep only sees pairs in touching cells, so it can only
    // overestimate; a certified value is the exact minimum.
    const SpatialGrid::PairSweep sweep = SpatialGrid(pts).closest_pair_sweep();
    EXPECT_GE(sweep.best_sq, want_sq) << name;
    if (sweep.certified) {
      EXPECT_EQ(sweep.best_sq, want_sq) << name;
      ++certified;
    } else {
      ++fallbacks;
    }
  }
  // Both paths ran: a square lattice's shortest link (its spacing) is
  // longer than the cell (extent / ceil(sqrt(n)) = 15/16), so its
  // certificate must fail.
  EXPECT_GT(certified, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_FALSE(SpatialGrid(point_sets::lattice(16, 16, 1.0))
                   .closest_pair_sweep()
                   .certified);
}

}  // namespace
}  // namespace fcr
