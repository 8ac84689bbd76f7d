#include "geom/hull.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace fcr {
namespace {

/// Twice the signed area of triangle (a, b, c); > 0 for a left turn.
double cross(Vec2 a, Vec2 b, Vec2 c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

}  // namespace

std::vector<Vec2> convex_hull(std::span<const Vec2> points) {
  // A NaN coordinate would break the comparator's strict weak ordering
  // (undefined behaviour in std::sort), so reject it up front.
  for (const Vec2 p : points) {
    FCR_ENSURE_ARG(std::isfinite(p.x) && std::isfinite(p.y),
                   "convex_hull: non-finite point (" << p.x << ", " << p.y
                                                     << ")");
  }
  std::vector<Vec2> pts(points.begin(), points.end());
  std::sort(pts.begin(), pts.end(), [](Vec2 a, Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

  const std::size_t n = pts.size();
  if (n <= 2) return pts;

  std::vector<Vec2> hull(2 * n);
  std::size_t k = 0;

  // Lower hull.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && cross(hull[k - 2], hull[k - 1], pts[i]) <= 0.0) --k;
    hull[k++] = pts[i];
  }
  // Upper hull.
  const std::size_t lower = k + 1;
  for (std::size_t i = n - 1; i-- > 0;) {
    while (k >= lower && cross(hull[k - 2], hull[k - 1], pts[i]) <= 0.0) --k;
    hull[k++] = pts[i];
  }
  hull.resize(k - 1);  // last point repeats the first
  if (hull.size() < 2 && n >= 2) {
    // All points collinear and equal after dedup handled above; return the
    // two sorted extremes so diameter() still works.
    return {pts.front(), pts.back()};
  }
  return hull;
}

namespace {

/// The points of `points` that are not strictly inside the octagon spanned
/// by its extreme points in x, y, x+y and x-y, in input order.
std::vector<Vec2> drop_octagon_interior(std::span<const Vec2> points) {
  if (points.size() < 4) return {points.begin(), points.end()};
  // Extreme points in the eight directions 0, 45, ..., 315 degrees: x,
  // x+y, y, y-x, -x, -x-y, -y, x-y. Support points of directions in
  // angular order are in counter-clockwise order along the hull, so they
  // span a convex octagon inside it (some vertices may coincide). The
  // drop test below is sound for any choice of vertices, so rounding in
  // the keys cannot make it drop a hull point.
  const auto keys = [](Vec2 p) {
    return std::array<double, 8>{p.x,  p.x + p.y,  p.y,  p.y - p.x,
                                 -p.x, -p.x - p.y, -p.y, p.x - p.y};
  };
  std::array<Vec2, 8> v;
  v.fill(points[0]);
  std::array<double, 8> best = keys(points[0]);
  for (const Vec2 p : points) {
    const std::array<double, 8> k = keys(p);
    for (std::size_t i = 0; i < 8; ++i) {
      if (k[i] > best[i]) {
        best[i] = k[i];
        v[i] = p;
      }
    }
  }

  // p is dropped only when it is strictly left of every edge a -> b of
  // the octagon, with a margin. The orientation t1 - t2 below comes from
  // four rounded differences, two products and a subtraction, so its
  // error is below (3u + 16u^2)(|t1| + |t2|) with u = 2^-53 (Shewchuk's
  // ccwerrboundA), plus 2^-1074 per product that underflows. p and a lie
  // in the bounding box, so |t1| + |t2| <= (|dx| height + |dy| width)
  // (1 + u), and the margin 2^-50 (|dx| height + |dy| width) + DBL_MIN
  // exceeds the error: every dropped point is strictly left of every edge
  // in exact arithmetic. Such a point is strictly inside the convex hull
  // of the octagon's vertices (the closed polygon winds around it), hence
  // strictly inside the hull of the input, so it is never a hull vertex.
  // NaN or infinite coordinates fail every comparison and are kept for
  // convex_hull to reject.
  constexpr double kErr = 0x1p-50;
  constexpr double kTiny = std::numeric_limits<double>::min();
  const double width = best[0] + best[4];   // max x - min x
  const double height = best[2] + best[6];  // max y - min y
  std::array<Vec2, 8> from;
  std::array<Vec2, 8> dir;
  std::array<double, 8> margin;
  std::size_t edges = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const Vec2 a = v[i];
    const Vec2 b = v[(i + 1) % 8];
    if (a == b) continue;
    from[edges] = a;
    dir[edges] = b - a;
    margin[edges] = kErr * (std::abs(dir[edges].x) * height +
                            std::abs(dir[edges].y) * width) +
                    kTiny;
    ++edges;
  }
  // Fewer than three edges bound no interior: keep everything.
  if (edges < 3) return {points.begin(), points.end()};

  std::vector<Vec2> kept;
  for (const Vec2 p : points) {
    bool inside = true;
    for (std::size_t e = 0; e < edges && inside; ++e) {
      const double t1 = dir[e].x * (p.y - from[e].y);
      const double t2 = dir[e].y * (p.x - from[e].x);
      inside = t1 - t2 > margin[e];
    }
    if (!inside) kept.push_back(p);
  }
  return kept;
}

}  // namespace

double diameter(std::span<const Vec2> points) {
  // Only hull vertices can realise the diameter, and the prefilter drops
  // only points strictly inside the hull: the monotone chain still sees
  // every hull vertex and every point on or near the boundary (see
  // docs/PERF.md §7.3).
  const std::vector<Vec2> hull = convex_hull(drop_octagon_interior(points));
  const std::size_t m = hull.size();
  if (m < 2) return 0.0;
  if (m == 2) return dist(hull[0], hull[1]);

  // Rotating calipers over antipodal pairs.
  double best_sq = 0.0;
  std::size_t j = 1;
  for (std::size_t i = 0; i < m; ++i) {
    const Vec2 a = hull[i];
    const Vec2 b = hull[(i + 1) % m];
    // Advance j while the next vertex is farther from edge (a, b).
    for (;;) {
      const std::size_t jn = (j + 1) % m;
      const double cur = std::abs(cross(a, b, hull[j]));
      const double nxt = std::abs(cross(a, b, hull[jn]));
      if (nxt > cur) {
        j = jn;
      } else {
        break;
      }
    }
    best_sq = std::max(best_sq, dist_sq(a, hull[j]));
    best_sq = std::max(best_sq, dist_sq(b, hull[j]));
  }
  return std::sqrt(best_sq);
}

}  // namespace fcr
