// Deployment: an immutable set of node positions plus the link statistics
// the paper's bounds are phrased in.
//
// Paper, Section 2: "Let R be the ratio of the longest to shortest link in
// the network. To simplify, we assume that link lengths are normalized so
// that the shortest is 1 and the longest is R." `normalized()` applies that
// normalization; `link_ratio()` is R.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "geom/grid.hpp"
#include "geom/point.hpp"

namespace fcr {

/// Immutable node placement with cached link statistics.
///
/// The position buffer is shared (copy-on-never: deployments are immutable),
/// so copying a Deployment is allocation-free. Rescaling creates a new
/// buffer.
class Deployment {
 public:
  /// Requires at least one node, finite coordinates, no duplicate
  /// positions (a duplicate would make the shortest link 0 and R
  /// undefined) and a longest link that does not overflow a double.
  explicit Deployment(std::vector<Vec2> positions);

  std::size_t size() const { return positions_->size(); }
  const std::vector<Vec2>& positions() const { return *positions_; }
  Vec2 position(NodeId id) const;

  /// Shortest pairwise distance (0 if fewer than 2 nodes).
  double min_link() const { return min_link_; }

  /// Longest pairwise distance (the point-set diameter).
  double max_link() const { return max_link_; }

  /// R = max_link / min_link; 1 for fewer than 2 nodes.
  double link_ratio() const;

  /// Number of link classes that can be non-empty: ceil(log2 R) buckets
  /// [2^i, 2^{i+1}) cover [1, R] after normalization (at least 1).
  std::size_t link_class_count() const;

  /// True when the shortest link is 1 within `tol` relative error.
  bool is_normalized(double tol = 1e-9) const;

  /// Returns a copy rescaled so the shortest link is exactly 1.
  Deployment normalized() const;

  /// Returns a copy rescaled by `factor`.
  Deployment scaled(double factor) const;

 private:
  std::shared_ptr<const std::vector<Vec2>> positions_;
  double min_link_ = 0.0;
  double max_link_ = 0.0;
};

/// Computes the shortest pairwise distance via a spatial grid: one
/// certified closest-pair sweep, O(n) expected after the O(n) build, with
/// one nearest-neighbor query per point as the fallback. Exposed for tests
/// and generators.
double min_pairwise_distance(std::span<const Vec2> points);

}  // namespace fcr
