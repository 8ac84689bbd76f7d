// Ablation control for E11: the paper's algorithm with its single feature —
// the knockout rule — removed.
//
// Every node transmits with constant probability p forever and never
// deactivates. The only way contention resolves is a lucky round in which
// exactly one of n nodes transmits, which happens with probability
// n p (1-p)^{n-1} — exponentially small in n for constant p. Comparing this
// against FadingContentionResolution isolates the knockout rule as the
// mechanism converting spatial reuse into progress.
#pragma once

#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Constant-probability transmission with no deactivation.
class NoKnockoutControl final : public Algorithm, public ColumnarAlgorithm {
 public:
  explicit NoKnockoutControl(double broadcast_probability = 0.2);

  std::string name() const override;
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void columnar_init(ColumnarState& state) const override;
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }

  double broadcast_probability() const { return p_; }

 private:
  double p_;
};

}  // namespace fcr
