// Binary exponential backoff — the link-layer classic (Ethernet/ALOHA
// lineage the paper's introduction cites as the practical face of
// contention resolution).
//
// Honest-model variant: transmitters receive no feedback (neither the SINR
// nor the plain radio model acknowledges), so backoff cannot react to
// collisions. Instead, epoch e has a window of 2^e rounds and every node
// transmits in exactly one uniformly chosen round of each epoch. Once the
// window reaches Theta(n), each epoch succeeds with constant probability;
// completion therefore takes Theta(n) rounds — an instructive contrast to
// the logarithmic strategies.
#pragma once

#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Windowed binary exponential backoff (no feedback required). Epoch
/// boundaries are a global function of the round (epoch e spans rounds
/// [2^e - 1, 2^{e+1} - 2] with window 2^e), so the columnar form stores
/// each node's chosen slot in the aux column: one uniform draw per node at
/// epoch-start rounds, a flat compare everywhere else.
class BinaryExponentialBackoff final : public Algorithm,
                                       public ColumnarAlgorithm {
 public:
  BinaryExponentialBackoff() = default;

  std::string name() const override { return "binary-backoff"; }
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }
};

}  // namespace fcr
