// Sift-style windowed contention with a geometrically skewed slot
// distribution (after Tay, Jamieson, Balakrishnan's Sift MAC for sensor
// networks — the practical contention-resolution lineage the paper's
// introduction gestures at with "link-layer implementations").
//
// Each epoch is a window of W slots; a node transmits in exactly one slot
// per epoch, chosen with the truncated geometric distribution
// P(slot = s) ∝ r^s for a skew ratio r < 1, so early slots are crowded and
// late slots sparse. The skew makes SOME slot's expected occupancy land
// near 1 across a wide range of participant counts without knowing n —
// the same estimate-free robustness goal the paper achieves through
// fading, pursued through time instead of space.
#pragma once

#include <cstddef>
#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Fixed-window Sift with truncated-geometric slot selection. The columnar
/// form stores each node's chosen slot in the aux column — one inverse-CDF
/// draw per node at epoch-start rounds (with the epoch-constant pow/log
/// factors hoisted out of the per-node loop), a flat compare everywhere
/// else, mirroring the backoff kernel's shape.
class SiftWindow final : public Algorithm, public ColumnarAlgorithm {
 public:
  /// `window` slots per epoch; `skew` in (0, 1): smaller = steeper skew.
  explicit SiftWindow(std::size_t window = 32, double skew = 0.8);

  std::string name() const override;
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }

  std::size_t window() const { return window_; }
  double skew() const { return skew_; }

  /// P(slot = s) for s in [0, window): (1-r) r^s / (1 - r^W).
  double slot_probability(std::size_t slot) const;

 private:
  std::size_t window_;
  double skew_;
};

}  // namespace fcr
