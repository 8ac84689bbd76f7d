// JS16-inspired fast decay: the Jurdziński–Stachowiak comparator.
//
// The paper credits Jurdziński & Stachowiak (SODA'16 / ref [16]) with the
// best previous SINR bound: O(log^2 n / log log n) rounds, requiring an
// advance polynomial upper bound on n. Their construction speeds up the
// standard decay sweep by a log log n factor and compensates with a
// dampening phase. No public implementation of the original exists; this
// faithful-in-spirit variant reproduces its interface (needs N), its round
// budget, and its qualitative behaviour (insensitive to R, slower than the
// paper's O(log n) algorithm):
//
//   * coarse ladder: probabilities 1/2, 1/(2 sigma), 1/(2 sigma^2), ...
//     with step sigma = 2^{ceil(log2 log2 N)}, so the sweep has
//     ceil(log N / log log N) + 1 slots instead of log N;
//   * each sweep slot is *dampened*: it is repeated only once per sweep but
//     the candidate probability within a slot is within a factor sigma of
//     1/#active for some slot, so the per-sweep solo probability is
//     Omega(1/sigma) = Omega(1/log N);
//   * Theta(log N) sweeps give high-probability completion, totaling
//     Theta(log^2 N / log log N) rounds.
//
// The substitution is recorded in DESIGN.md (Substitutions table).
#pragma once

#include <cstddef>
#include <memory>

#include "sim/protocol.hpp"

namespace fcr {

/// Fast-decay contention resolution with known size bound N. The slot
/// probability 0.5 * sigma^{-slot} depends only on the round, so the
/// columnar pass hoists the std::pow out of the per-node loop — the
/// virtual path recomputes it n times per round.
class FastDecay final : public Algorithm, public ColumnarAlgorithm {
 public:
  explicit FastDecay(std::size_t size_bound);

  std::string name() const override;
  std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const override;
  const ColumnarAlgorithm* columnar() const override { return this; }
  void decide(std::uint64_t round, ColumnarState& state,
              std::span<std::uint64_t> decisions) const override;
  FeedbackMode feedback_mode() const override { return FeedbackMode::kNone; }
  bool uses_size_bound() const override { return true; }

  std::size_t size_bound() const { return size_bound_; }
  /// Multiplicative ladder step sigma = 2^{ceil(log2 log2 N)} (>= 2).
  double sigma() const { return sigma_; }
  /// Sweep length: ceil(log_sigma N) + 1 slots.
  std::size_t sweep_length() const { return sweep_length_; }

 private:
  std::size_t size_bound_;
  double sigma_;
  std::size_t sweep_length_;
};

}  // namespace fcr
