// Convex hull and exact point-set diameter.
//
// A deployment's longest link (the paper's R numerator) is the diameter of
// the point set; computing it pairwise is O(n^2), so we go through the hull
// (Andrew's monotone chain) and rotating calipers: O(n log n). diameter()
// first drops, in O(n), every point strictly inside the octagon spanned by
// the extreme points in x, y, x+y and x-y, so on spread-out sets only the
// few points near the boundary are sorted.
#pragma once

#include <span>
#include <vector>

#include "geom/point.hpp"

namespace fcr {

/// Convex hull in counter-clockwise order, without repeating the first
/// vertex. Collinear interior points are dropped. Handles degenerate inputs
/// (0, 1, 2 points; all-collinear sets return the two extremes).
std::vector<Vec2> convex_hull(std::span<const Vec2> points);

/// Exact Euclidean diameter (max pairwise distance); 0 for fewer than two
/// points.
double diameter(std::span<const Vec2> points);

}  // namespace fcr
