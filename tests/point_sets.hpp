// Point sets that stress the exact link statistics (shortest link and
// diameter): offset coordinates, exact lattices full of distance ties,
// stretched chains, rings whose every point is a hull vertex, collinear
// sets and a cluster with a far outlier — plus the brute-force references
// they are checked against.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "deploy/generators.hpp"
#include "geom/point.hpp"
#include "util/rng.hpp"

namespace fcr::point_sets {

/// Smallest dist_sq over all pairs (+inf for fewer than two points).
inline double brute_min_sq(const std::vector<Vec2>& pts) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      best = std::min(best, dist_sq(pts[i], pts[j]));
    }
  }
  return best;
}

/// Largest dist_sq over all pairs (0 for fewer than two points).
inline double brute_max_sq(const std::vector<Vec2>& pts) {
  double best = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      best = std::max(best, dist_sq(pts[i], pts[j]));
    }
  }
  return best;
}

struct NamedSet {
  std::string name;
  std::vector<Vec2> points;
};

inline std::vector<Vec2> shifted(std::vector<Vec2> pts, double by) {
  for (Vec2& p : pts) p = p + Vec2{by, by};
  return pts;
}

inline std::vector<Vec2> lattice(std::size_t rows, std::size_t cols,
                                 double spacing) {
  std::vector<Vec2> pts;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      pts.push_back({static_cast<double>(c) * spacing,
                     static_cast<double>(r) * spacing});
    }
  }
  return pts;
}

inline std::vector<Vec2> circle(std::size_t n, double radius) {
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(radius * unit_at(2.0 * 3.14159265358979323846 *
                                   static_cast<double>(i) /
                                   static_cast<double>(n)));
  }
  return pts;
}

inline std::vector<Vec2> uniform(std::size_t n, double side, Rng& rng) {
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return pts;
}

/// The hard shapes. Exact lattices (square ones at least) fail the
/// closest-pair sweep's certificate, so they exercise its fallback.
inline std::vector<NamedSet> hard_point_sets() {
  Rng rng(2026);
  std::vector<NamedSet> sets;
  sets.push_back({"two points", {{0.0, 0.0}, {3.0, 4.0}}});
  sets.push_back({"three points", {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}});
  sets.push_back({"uniform offset 2^30", shifted(uniform(500, 40.0, rng), 0x1p30)});
  sets.push_back({"uniform offset -2^30", shifted(uniform(300, 5.0, rng), -0x1p30)});
  sets.push_back({"lattice 16x16", lattice(16, 16, 1.0)});
  sets.push_back({"lattice 7x13 spacing 0.5", lattice(7, 13, 0.5)});
  sets.push_back({"lattice 32x32 offset 2^30", shifted(lattice(32, 32, 1.0), 0x1p30)});
  sets.push_back({"lattice 1x40", lattice(1, 40, 2.0)});
  {
    // The last row and column moved 0.01 closer: every shortest link now
    // joins cells two apart (cell size 14.99 / 16, so 14 lands in cell 14
    // and 14.99 in cell 16), so the sweep misses them all and only the
    // fallback finds them.
    std::vector<Vec2> pts = lattice(16, 16, 1.0);
    for (Vec2& p : pts) {
      if (p.x == 15.0) p.x = 14.99;
      if (p.y == 15.0) p.y = 14.99;
    }
    sets.push_back({"lattice 16x16 with the last row and column closer", pts});
  }
  const std::size_t chain_sizes[] = {3, 17, 64, 257};
  for (const std::size_t n : chain_sizes) {
    sets.push_back({"chain R=2^20 n=" + std::to_string(n),
                    exponential_chain(n, 0x1p20, rng).positions()});
  }
  sets.push_back({"ring 256", circle(256, 100.0)});
  sets.push_back({"ring 1000 offset 2^30", shifted(circle(1000, 1e4), 0x1p30)});
  sets.push_back({"ring 6", circle(6, 1.0)});
  {
    std::vector<Vec2> line;
    std::vector<Vec2> diagonal;
    std::vector<Vec2> sloped;
    double x = 0.0;
    for (std::size_t i = 0; i < 100; ++i) {
      line.push_back({1.5 * static_cast<double>(i), 3.0});
      diagonal.push_back({static_cast<double>(i), static_cast<double>(i)});
      x += 0.1 + static_cast<double>(i % 7) * 0.37;
      sloped.push_back({x, 2.0 * x + 1.0});
    }
    sets.push_back({"collinear horizontal", line});
    sets.push_back({"collinear diagonal", diagonal});
    sets.push_back({"collinear sloped", sloped});
  }
  {
    std::vector<Vec2> pts = uniform(300, 1.0, rng);
    pts.push_back({1e6, -1e6});
    sets.push_back({"cluster plus outlier", pts});
  }
  sets.push_back({"perturbed grid 20x20",
                  perturbed_grid(20, 20, 1.0, 0.1, rng).positions()});
  return sets;
}

}  // namespace fcr::point_sets
