// Decay-style baselines from the classical radio network model.
//
// The paper's separation claim is against this family: without collision
// detection and without fading, high-probability contention resolution
// costs Theta(log^2 n) rounds (Newport [20], Willard [23]). The canonical
// upper bound is the Bar-Yehuda/Goldreich/Itai "Decay" schedule: sweep the
// broadcast probabilities 1/2, 1/4, ..., 1/2^L with L = ceil(log2 N) + 1;
// some slot of the sweep is within a factor 2 of 1/#active, giving a
// constant solo probability per sweep, so Theta(log n) sweeps of length
// Theta(log N) succeed w.h.p.
//
// Two variants:
//   * DecayKnownN  — needs an upper bound N >= n (ladder length from N),
//   * DecayDoubling — no knowledge of n: epoch e sweeps the ladder
//     1/2 ... 1/2^e (estimate N = 2^e), restarting with a deeper ladder
//     forever. Reaching a useful estimate costs sum_{e<=log n} e =
//     O(log^2 n) rounds; w.h.p. completion is O(log^2 n) as well.
#pragma once

#include <cstddef>
#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Decay with a known size bound N >= n. The sweep slot — and with it the
/// broadcast probability — is a global function of the round, so the
/// columnar decide pass computes it once and draws one bernoulli per node.
class DecayKnownN final : public Algorithm, public ColumnarAlgorithm {
 public:
  explicit DecayKnownN(std::size_t size_bound);

  std::string name() const override;
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }
  bool uses_size_bound() const override { return true; }

  std::size_t size_bound() const { return size_bound_; }
  std::size_t sweep_length() const { return sweep_length_; }

 private:
  std::size_t size_bound_;
  std::size_t sweep_length_;  ///< L = ceil(log2 N) + 1
};

/// Decay with doubling size estimate; needs no knowledge of n. Like
/// DecayKnownN, the epoch/slot pair is round-global: the columnar pass
/// walks the epoch triangle once per round instead of once per node.
class DecayDoubling final : public Algorithm, public ColumnarAlgorithm {
 public:
  DecayDoubling() = default;

  std::string name() const override { return "decay-doubling"; }
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }
};

}  // namespace fcr
