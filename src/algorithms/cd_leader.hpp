// Leader election with receiver collision detection — the Theta(log n)
// strategy in the *stronger* radio model (paper: "a bound that improves to
// Theta(log n) if you assume receivers can detect collisions [20]").
//
// Protocol (survivor halving): every node starts as a candidate. Each round,
// each candidate transmits with probability 1/2; a candidate that *listens*
// and hears activity (a message or a detected collision) withdraws — someone
// else is still in the race. Candidates that transmitted stay. With k
// candidates, the expected survivor count halves per busy round, so a solo
// round occurs within O(log n) rounds w.h.p.
//
// Honesty notes: transmitters receive no feedback (consistent with the
// model); listeners need to distinguish collision from silence, so this
// algorithm declares requires_collision_detection() and the engine rejects
// running it on the plain radio or SINR channels.
#pragma once

#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Collision-detection survivor-halving leader election.
class CollisionDetectLeader final : public Algorithm {
 public:
  explicit CollisionDetectLeader(double transmit_probability = 0.5);

  std::string name() const override { return "cd-leader"; }
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  bool requires_collision_detection() const override { return true; }

  double transmit_probability() const { return p_; }

 private:
  double p_;
};

}  // namespace fcr
