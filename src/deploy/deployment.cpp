#include "deploy/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "geom/hull.hpp"
#include "util/check.hpp"

namespace fcr {

double min_pairwise_distance(std::span<const Vec2> points) {
  if (points.size() < 2) return 0.0;
  const SpatialGrid grid(points);
  // sqrt is monotone and correctly rounded, so the sqrt of the smallest
  // dist_sq is the smallest distance, bit for bit.
  const SpatialGrid::PairSweep sweep = grid.closest_pair_sweep();
  if (sweep.certified) return std::sqrt(sweep.best_sq);
  double best = std::numeric_limits<double>::infinity();
  for (NodeId id = 0; id < points.size(); ++id) {
    const auto d = grid.nearest_distance(points[id], id);
    FCR_CHECK(d.has_value());
    best = std::min(best, *d);
  }
  return best;
}

Deployment::Deployment(std::vector<Vec2> positions)
    : positions_(std::make_shared<const std::vector<Vec2>>(std::move(positions))) {
  FCR_ENSURE_ARG(!positions_->empty(),
                 "deployment must contain at least one node");
  for (std::size_t id = 0; id < positions_->size(); ++id) {
    const Vec2 p = (*positions_)[id];
    FCR_ENSURE_ARG(std::isfinite(p.x) && std::isfinite(p.y),
                   "node " << id << " has a non-finite position " << p);
  }
  if (positions_->size() >= 2) {
    max_link_ = diameter(*positions_);
    FCR_ENSURE_ARG(std::isfinite(max_link_),
                   "longest link overflows a double (coordinates too large)");
    min_link_ = min_pairwise_distance(*positions_);
    FCR_ENSURE_ARG(min_link_ > 0.0,
                   "deployment contains duplicate positions (shortest link 0)");
  }
}

Vec2 Deployment::position(NodeId id) const {
  FCR_ENSURE_ARG(id < positions_->size(), "node id out of range: " << id);
  return (*positions_)[id];
}

double Deployment::link_ratio() const {
  if (positions_->size() < 2) return 1.0;
  return max_link_ / min_link_;
}

std::size_t Deployment::link_class_count() const {
  if (positions_->size() < 2) return 1;
  const double r = link_ratio();
  // Bucket [2^i, 2^{i+1}) for i = 0 .. ceil(log2 R) - 1; R itself lands in
  // bucket floor(log2 R), so we need floor(log2 R) + 1 buckets.
  return static_cast<std::size_t>(std::floor(std::log2(r))) + 1;
}

bool Deployment::is_normalized(double tol) const {
  if (positions_->size() < 2) return true;
  return std::abs(min_link_ - 1.0) <= tol;
}

Deployment Deployment::normalized() const {
  if (positions_->size() < 2 || min_link_ == 1.0) return *this;
  return scaled(1.0 / min_link_);
}

Deployment Deployment::scaled(double factor) const {
  FCR_ENSURE_ARG(factor > 0.0, "scale factor must be positive");
  std::vector<Vec2> scaled_positions;
  scaled_positions.reserve(positions_->size());
  for (const Vec2 p : *positions_) scaled_positions.push_back(factor * p);
  return Deployment(std::move(scaled_positions));
}

}  // namespace fcr
