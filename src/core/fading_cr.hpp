// The paper's contention-resolution algorithm (Section 1, "Our Algorithm"):
//
//   "Each participating node starts in an active state; at the beginning of
//    each round, each node that is still active broadcasts with a constant
//    probability p; if an active node receives a message, it becomes
//    inactive."
//
// That is the entire algorithm. It uses no identifiers, no knowledge of n
// or R, and no channel feedback beyond "did I decode a message". Theorem 11
// shows it solves contention resolution in O(log n + log R) rounds w.h.p.
// on a fading channel; the knockout rule is what converts the channel's
// spatial reuse into geometric decay of the active set.
#pragma once

#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Default broadcast probability. The analysis (Lemma 3) only requires a
/// sufficiently small constant; empirically the completion time is flat
/// across a wide range (experiment E5), and 0.2 sits in the flat region.
inline constexpr double kDefaultBroadcastProbability = 0.2;

/// Per-node state machine of the paper's algorithm.
class FadingNode final : public NodeProtocol {
 public:
  FadingNode(double p, Rng rng) : p_(p), rng_(rng) {}

  Action on_round_begin(std::uint64_t round) override;
  void on_round_end(const Feedback& feedback) override;

  /// Active = still contending (has not been knocked out).
  bool is_contending() const override { return active_; }

 private:
  double p_;
  Rng rng_;
  bool active_ = true;
};

/// Algorithm factory for FadingNode. Also implements the columnar (SoA)
/// capability: the per-node state is exactly (probability, active bit,
/// stream), so the algorithm maps onto the engine's columns with no
/// residue — decide is a bernoulli sweep over the active bitmask, the
/// knockout rule is a bitmask clear.
class FadingContentionResolution final : public Algorithm,
                                         public ColumnarAlgorithm {
 public:
  explicit FadingContentionResolution(
      double broadcast_probability = kDefaultBroadcastProbability);

  std::string name() const override;
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;

  const ColumnarAlgorithm* columnar() const override { return this; }
  void columnar_init(ColumnarState& state) const override;
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;

  /// Feedback is exactly "deactivate every listener that received".
  FeedbackMode feedback_mode() const override {
    return FeedbackMode::kReceivedMask;
  }
  /// The knockout rule as a sweep over the received words.
  void columnar_feedback(
      ColumnarState& state,
      std::span<const std::uint64_t> received) const override;

  double broadcast_probability() const { return p_; }

 private:
  double p_;
};

}  // namespace fcr
