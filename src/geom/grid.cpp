#include "geom/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "geom/bbox.hpp"
#include "util/check.hpp"

namespace fcr {

SpatialGrid::SpatialGrid(std::span<const Vec2> points,
                         std::span<const NodeId> subset) {
  build(points, subset);
}

SpatialGrid::SpatialGrid(std::span<const Vec2> points) {
  std::vector<NodeId> all(points.size());
  std::iota(all.begin(), all.end(), NodeId{0});
  build(points, all);
}

void SpatialGrid::build(std::span<const Vec2> points,
                        std::span<const NodeId> subset) {
  BBox bounds;
  for (const NodeId id : subset) {
    FCR_ENSURE_ARG(id < points.size(), "subset id out of range: " << id);
    const Vec2 p = points[id];
    FCR_ENSURE_ARG(std::isfinite(p.x) && std::isfinite(p.y),
                   "non-finite position for id " << id << ": " << p);
    bounds.extend(p);
  }
  // 2^31 entries keep every offset and cell index (at most
  // (ceil(sqrt(2^31)) + 1)^2 cells) within 32 bits.
  FCR_ENSURE_ARG(subset.size() <= (std::size_t{1} << 31),
                 "too many points for one grid: " << subset.size());
  count_ = subset.size();
  entries_.clear();
  start_.clear();
  live_.clear();
  origin_ = {};
  width_ = 0;
  height_ = 0;
  cell_ = 1.0;
  if (count_ == 0) return;

  const double extent = bounds.extent();
  FCR_ENSURE_ARG(std::isfinite(extent),
                 "bounding box extent overflows: " << bounds.lo << " to "
                                                   << bounds.hi);
  // O(sqrt(m)) cells per axis keeps every query worst-case O(m).
  const double per_axis = std::ceil(std::sqrt(static_cast<double>(count_)));
  cell_ = extent / per_axis;
  if (!(cell_ > 0.0)) cell_ = 1.0;
  // The lattice starts at the lower corner, so every indexed coordinate
  // maps to a cell index of about per_axis at most, whatever the offset;
  // rounding is monotone, so the largest coordinate sets the width.
  origin_ = bounds.lo;
  width_ = static_cast<std::int64_t>((bounds.hi.x - origin_.x) / cell_) + 1;
  height_ = static_cast<std::int64_t>((bounds.hi.y - origin_.y) / cell_) + 1;

  // Counting sort by cell: count, prefix-sum into offsets, then scatter in
  // subset order (live_ is the scatter cursor and ends as the occupancy).
  const auto cells = static_cast<std::size_t>(width_ * height_);
  start_.assign(cells + 1, 0);
  live_.assign(cells, 0);
  std::vector<std::uint32_t> cell_of(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const Vec2 p = points[subset[i]];
    const auto c = static_cast<std::uint32_t>(cell_y(p.y) * width_ + cell_x(p.x));
    cell_of[i] = c;
    ++start_[c + 1];
  }
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  entries_.resize(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const std::uint32_t c = cell_of[i];
    entries_[start_[c] + live_[c]++] = Entry{subset[i], points[subset[i]]};
  }
}

std::int64_t SpatialGrid::cell_coord(double v, double origin,
                                     std::int64_t cells) const {
  // floor((v - origin) / cell_), clamped: any negative quotient (and NaN)
  // maps to -1, and on [0, cells) truncation is floor.
  const double f = (v - origin) / cell_;
  if (!(f >= 0.0)) return -1;
  if (f >= static_cast<double>(cells)) return cells;
  return static_cast<std::int64_t>(f);
}

std::span<const SpatialGrid::Entry> SpatialGrid::cell_at(std::int64_t x,
                                                          std::int64_t y) const {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return {};
  const auto c = static_cast<std::size_t>(y * width_ + x);
  return {entries_.data() + start_[c], live_[c]};
}

bool SpatialGrid::remove(NodeId id, Vec2 pos) {
  const std::int64_t x = cell_x(pos.x);
  const std::int64_t y = cell_y(pos.y);
  if (x < 0 || x >= width_ || y < 0 || y >= height_) return false;
  const auto c = static_cast<std::size_t>(y * width_ + x);
  Entry* const first = entries_.data() + start_[c];
  for (std::uint32_t i = 0; i < live_[c]; ++i) {
    if (first[i].id != id) continue;
    first[i] = first[--live_[c]];
    // The vacated slot stays inside the cell's run; a NaN position keeps
    // it out of closest_pair_sweep()'s minimum.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    first[live_[c]].pos = {nan, nan};
    --count_;
    return true;
  }
  return false;
}

template <typename Fn>
void SpatialGrid::visit_ring(std::int64_t cx, std::int64_t cy, std::int64_t ring,
                             Fn&& fn) const {
  auto visit_cell = [&](std::int64_t x, std::int64_t y) {
    for (const Entry& e : cell_at(x, y)) fn(e);
  };

  if (ring == 0) {
    visit_cell(cx, cy);
    return;
  }
  for (std::int64_t dx = -ring; dx <= ring; ++dx) {
    visit_cell(cx + dx, cy - ring);
    visit_cell(cx + dx, cy + ring);
  }
  for (std::int64_t dy = -ring + 1; dy <= ring - 1; ++dy) {
    visit_cell(cx - ring, cy + dy);
    visit_cell(cx + ring, cy + dy);
  }
}

std::optional<SpatialGrid::Nearest> SpatialGrid::nearest(Vec2 query,
                                                         NodeId exclude) const {
  if (count_ == 0) return std::nullopt;

  const std::int64_t qx = cell_x(query.x);
  const std::int64_t qy = cell_y(query.y);
  // Maximum useful ring: Chebyshev span of the cell rectangle from the
  // (clamped) query cell.
  const std::int64_t span_x = std::max(std::llabs(qx), std::llabs(width_ - 1 - qx));
  const std::int64_t span_y = std::max(std::llabs(qy), std::llabs(height_ - 1 - qy));
  const std::int64_t max_ring = std::max(span_x, span_y);

  double best_sq = std::numeric_limits<double>::infinity();
  NodeId best = kInvalidNode;

  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    // Any point in a cell at Chebyshev ring r is at distance >= (r-1)*cell
    // from the query (the query may sit on the boundary of its own cell),
    // so once we hold a candidate at <= (ring-1)*cell we can stop before
    // visiting this ring.
    if (best != kInvalidNode && ring >= 1) {
      const double reachable = static_cast<double>(ring - 1) * cell_;
      if (best_sq <= reachable * reachable) break;
    }
    visit_ring(qx, qy, ring, [&](const Entry& e) {
      if (e.id == exclude) return;
      const double d2 = dist_sq(query, e.pos);
      // Smallest id wins exact-distance ties: the answer is a function of
      // the indexed SET, not of cell order (which remove() perturbs) or
      // of the cell size (which differs between a fresh grid and one that
      // shrank incrementally).
      if (d2 < best_sq || (d2 == best_sq && e.id < best)) {
        best_sq = d2;
        best = e.id;
      }
    });
  }

  if (best == kInvalidNode) return std::nullopt;
  return Nearest{best, std::sqrt(best_sq)};
}

std::optional<double> SpatialGrid::nearest_distance(Vec2 query,
                                                    NodeId exclude) const {
  const auto found = nearest(query, exclude);
  if (!found) return std::nullopt;
  return found->distance;
}

template <typename Fn>
void SpatialGrid::visit_disk(Vec2 center, double radius, Fn&& fn) const {
  if (count_ == 0 || radius < 0.0) return;
  const std::int64_t x0 = std::max<std::int64_t>(cell_x(center.x - radius), 0);
  const std::int64_t x1 = std::min(cell_x(center.x + radius), width_ - 1);
  const std::int64_t y0 = std::max<std::int64_t>(cell_y(center.y - radius), 0);
  const std::int64_t y1 = std::min(cell_y(center.y + radius), height_ - 1);
  const double r_sq = radius * radius;
  // x inner: consecutive cells of a row are adjacent in entries_.
  for (std::int64_t y = y0; y <= y1; ++y) {
    for (std::int64_t x = x0; x <= x1; ++x) {
      for (const Entry& e : cell_at(x, y)) {
        if (dist_sq(center, e.pos) <= r_sq) fn(e);
      }
    }
  }
}

std::vector<NodeId> SpatialGrid::in_disk(Vec2 center, double radius,
                                         NodeId exclude) const {
  std::vector<NodeId> out;
  visit_disk(center, radius, [&](const Entry& e) {
    if (e.id != exclude) out.push_back(e.id);
  });
  return out;
}

std::size_t SpatialGrid::count_in_disk(Vec2 center, double radius,
                                       NodeId exclude) const {
  std::size_t n = 0;
  visit_disk(center, radius, [&](const Entry& e) {
    if (e.id != exclude) ++n;
  });
  return n;
}

std::size_t SpatialGrid::count_in_annulus(Vec2 center, double r_inner,
                                          double r_outer, NodeId exclude) const {
  FCR_ENSURE_ARG(r_inner <= r_outer, "annulus: inner radius exceeds outer");
  std::size_t n = 0;
  const double inner_sq = r_inner * r_inner;
  visit_disk(center, r_outer, [&](const Entry& e) {
    if (e.id == exclude) return;
    if (dist_sq(center, e.pos) > inner_sq) ++n;
  });
  return n;
}

SpatialGrid::PairSweep SpatialGrid::closest_pair_sweep() const {
  // Each row is one contiguous run of entries_, so a cell's forward
  // neighbours form two runs: the rest of this cell plus cell x+1, and
  // cells x-1..x+1 of the next row. The runs include removed entries,
  // whose NaN positions never compare below best_sq.
  double best_sq = std::numeric_limits<double>::infinity();
  const Entry* const e = entries_.data();
  const auto w = static_cast<std::size_t>(width_);
  const auto h = static_cast<std::size_t>(height_);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t c = y * w + x;
      if (start_[c] == start_[c + 1]) continue;
      const std::uint32_t same_end = start_[x + 1 < w ? c + 2 : c + 1];
      std::uint32_t up_begin = 0;
      std::uint32_t up_end = 0;
      if (y + 1 < h) {
        up_begin = start_[x > 0 ? c + w - 1 : c + w];
        up_end = start_[x + 1 < w ? c + w + 2 : c + w + 1];
      }
      for (std::uint32_t i = start_[c]; i < start_[c + 1]; ++i) {
        const Vec2 p = e[i].pos;
        for (std::uint32_t j = i + 1; j < same_end; ++j) {
          best_sq = std::min(best_sq, dist_sq(p, e[j].pos));
        }
        for (std::uint32_t j = up_begin; j < up_end; ++j) {
          best_sq = std::min(best_sq, dist_sq(p, e[j].pos));
        }
      }
    }
  }

  // Certificate: every pair the sweep skipped computes a dist_sq above
  // `bound`, so best_sq <= bound makes best_sq the global minimum.
  //
  // A skipped pair (p, q) sits in cells at least two apart along some
  // axis, say x. Write u = 2^-53 and K = max(width_, height_). The cell
  // coordinates a = fl(fl(p.x - o) / c) and b (likewise for q) satisfy
  // b >= floor(b) >= floor(a) + 2 > a + 1. Each rounding moves a
  // coordinate by at most u times its size, and a, b < K, so the true gap
  // q.x - p.x exceeds c * (1 - 2u(a + b)) > c * (1 - 5uK). (A subnormal
  // quotient adds an absolute error of 2^-1075 cells, far below uK.)
  // dist_sq rounds four times (the difference, each square, the sum);
  // once c^2 >= 2^-1000 the subnormal squares' absolute error is
  // negligible too, so the computed dist_sq of the pair is at least
  // c^2 * (1 - 10uK - 4u - 2^-74) > c^2 * (1 - 15uK). A grid holds at
  // most 2^31 entries, so K <= 2^16 and 15uK < 2^-33, while the bound
  // below is at most c^2 * (1 + u)^2 * (1 - 2^-20) < c^2 * (1 - 2^-21).
  // Outside 2^-500 <= c <= 2^500 the argument is not made and the sweep
  // is never certified.
  const bool in_range = cell_ >= 0x1p-500 && cell_ <= 0x1p500;
  const double bound = cell_ * cell_ * (1.0 - 0x1p-20);
  return {best_sq, in_range && best_sq <= bound};
}

}  // namespace fcr
