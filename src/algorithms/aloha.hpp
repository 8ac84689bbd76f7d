// Slotted ALOHA with known n — the knowledge-powered baseline.
//
// With the exact network size, transmitting with probability 1/n makes a
// solo round happen with probability n * (1/n) * (1 - 1/n)^{n-1} ~ 1/e, so
// completion takes Theta(1) expected and Theta(log n) rounds w.h.p. The
// paper cites this adaptation of [2]: "Given an upper bound N on the
// network size n, the strategy of [2] can be adapted to yield a solution
// that solves the problem in O(log N) expected rounds." It shows that exact
// knowledge of n substitutes for fading — and makes the fading algorithm's
// matching bound *without* any knowledge the interesting part.
#pragma once

#include <cstddef>
#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Fixed probability 1/N every round; N should be (an estimate of) n.
class SlottedAloha final : public Algorithm, public ColumnarAlgorithm {
 public:
  explicit SlottedAloha(std::size_t size_bound);

  std::string name() const override;
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void columnar_init(ColumnarState& state) const override;
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }
  bool uses_size_bound() const override { return true; }

  std::size_t size_bound() const { return size_bound_; }

 private:
  std::size_t size_bound_;
};

}  // namespace fcr
