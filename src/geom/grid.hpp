// Uniform spatial grid over a (subset of a) point set.
//
// The simulator and the paper's analysis instrumentation need three spatial
// queries, all supported here:
//   * nearest other point (link-class computation: distance to the nearest
//     active neighbor determines a node's link class d_i),
//   * points within a disk (reception candidates, packing checks),
//   * points within an annulus (the exponential annuli A_t^i(u) of the
//     good-node definition).
// A fourth pass, `closest_pair_sweep()`, finds the deployment's shortest
// link in one sweep over neighbouring cells.
//
// The cell size is extent/ceil(sqrt(m)) and the lattice starts at the
// bounding box's lower corner, so the occupied cell rectangle has at most
// (ceil(sqrt(m)) + 1)^2 cells regardless of how stretched or offset the
// deployment is (e.g. exponential chains with R = 2^20); all queries are
// then worst-case O(m) and expected O(k + 1) for outputs of size k on
// uniform deployments.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/point.hpp"

namespace fcr {

/// Node identifier type used across the library (index into a Deployment).
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Spatial index over a set of (id, position) pairs; shrinks via remove().
class SpatialGrid {
 public:
  /// Indexes `subset` (ids into `points`). Throws std::invalid_argument on
  /// an out-of-range id, a non-finite coordinate, or a bounding box whose
  /// extent overflows.
  SpatialGrid(std::span<const Vec2> points, std::span<const NodeId> subset);

  /// Indexes every point.
  explicit SpatialGrid(std::span<const Vec2> points);

  std::size_t size() const { return count_; }

  /// Removes the entry (id, pos) — `pos` MUST be the position the id was
  /// indexed under (it selects the cell). O(cell occupancy), i.e. O(1)
  /// expected: the entry is swap-erased within its cell. Returns false
  /// when no such entry is indexed. The cell rectangle is NOT shrunk, so
  /// queries after removals may scan a slightly larger ring range; results
  /// are unaffected.
  bool remove(NodeId id, Vec2 pos);

  /// Result of a nearest-neighbor query.
  struct Nearest {
    NodeId id;
    double distance;
  };

  /// Nearest indexed point to `query`, excluding id `exclude`. Ties on
  /// distance are broken toward the SMALLEST id, so the winner is a pure
  /// function of the indexed (id, pos) set — independent of insertion
  /// order, cell size, and any interleaved remove()s.
  /// Returns nullopt when no other indexed point exists.
  std::optional<Nearest> nearest(Vec2 query, NodeId exclude = kInvalidNode) const;

  /// Distance to the nearest indexed point, excluding `exclude`.
  std::optional<double> nearest_distance(Vec2 query,
                                         NodeId exclude = kInvalidNode) const;

  /// Ids of indexed points p with dist(p, center) <= radius, excluding
  /// `exclude`. Order unspecified.
  std::vector<NodeId> in_disk(Vec2 center, double radius,
                              NodeId exclude = kInvalidNode) const;

  /// Number of indexed points with r_inner < dist <= r_outer (matching the
  /// paper's A_t^i(u) = B(u, outer) \ B(u, inner)), excluding `exclude`.
  std::size_t count_in_annulus(Vec2 center, double r_inner, double r_outer,
                               NodeId exclude = kInvalidNode) const;

  /// Number of indexed points with dist <= radius, excluding `exclude`.
  std::size_t count_in_disk(Vec2 center, double radius,
                            NodeId exclude = kInvalidNode) const;

  /// Result of closest_pair_sweep().
  struct PairSweep {
    /// Smallest dist_sq over pairs of indexed points in the same or
    /// adjacent cells; +inf when there is no such pair.
    double best_sq;
    /// True when best_sq is provably the smallest dist_sq over ALL pairs.
    bool certified;
  };

  /// Half-stencil sweep: each cell against itself and its forward
  /// neighbours (x+1, y) and (x-1..x+1, y+1), so every pair in touching
  /// cells is compared once. O(m) expected on uniform sets.
  PairSweep closest_pair_sweep() const;

 private:
  struct Entry {
    NodeId id;
    Vec2 pos;
  };

  void build(std::span<const Vec2> points, std::span<const NodeId> subset);

  /// Cell coordinate of `v` along one axis, clamped to [-1, cells]: a query
  /// outside the rectangle behaves like one just past its edge, which keeps
  /// every ring-distance bound valid and the integer conversion defined.
  std::int64_t cell_coord(double v, double origin, std::int64_t cells) const;
  std::int64_t cell_x(double x) const { return cell_coord(x, origin_.x, width_); }
  std::int64_t cell_y(double y) const { return cell_coord(y, origin_.y, height_); }

  /// Live entries of cell (x, y); empty outside the rectangle.
  std::span<const Entry> cell_at(std::int64_t x, std::int64_t y) const;

  /// Visits entries in every cell within Chebyshev cell-ring `ring` of the
  /// query cell.
  template <typename Fn>
  void visit_ring(std::int64_t cx, std::int64_t cy, std::int64_t ring, Fn&& fn) const;

  template <typename Fn>
  void visit_disk(Vec2 center, double radius, Fn&& fn) const;

  // One flat array, counting-sorted by cell (row-major over the occupied
  // cell rectangle); within a cell, entries keep insertion order. Cell c
  // owns entries_[start_[c], start_[c + 1]); the first live_[c] of them
  // are indexed, the rest were removed and have NaN positions.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> live_;
  Vec2 origin_;
  std::int64_t width_ = 0;
  std::int64_t height_ = 0;
  double cell_ = 1.0;
  std::size_t count_ = 0;
};

}  // namespace fcr
