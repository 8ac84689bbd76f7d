#include "algorithms/decay.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

/// Broadcast probability of the decay ladder slot k (0-based): 2^{-(k+1)}.
double ladder_probability(std::uint64_t slot) {
  return std::ldexp(1.0, -static_cast<int>(slot + 1));
}

/// Rounds are 1-based; maps a round to its slot within a fixed sweep.
class DecayKnownNNode final : public NodeProtocol {
 public:
  DecayKnownNNode(std::size_t sweep_length, Rng rng)
      : sweep_length_(sweep_length), rng_(rng) {}

  Action on_round_begin(std::uint64_t round) override {
    const std::uint64_t slot = (round - 1) % sweep_length_;
    return rng_.bernoulli(ladder_probability(slot)) ? Action::kTransmit
                                                    : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}

 private:
  std::size_t sweep_length_;
  Rng rng_;
};

/// Epoch e (1-based) sweeps slots 0..e-1, so epoch e starts at round
/// 1 + e(e-1)/2. No node state besides the RNG.
class DecayDoublingNode final : public NodeProtocol {
 public:
  explicit DecayDoublingNode(Rng rng) : rng_(rng) {}

  Action on_round_begin(std::uint64_t round) override {
    // Find epoch e with offset = round-1 - e(e-1)/2 in [0, e).
    std::uint64_t r = round - 1;
    std::uint64_t epoch = 1;
    while (r >= epoch) {
      r -= epoch;
      ++epoch;
    }
    return rng_.bernoulli(ladder_probability(r)) ? Action::kTransmit
                                                 : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}

 private:
  Rng rng_;
};

}  // namespace

DecayKnownN::DecayKnownN(std::size_t size_bound) : size_bound_(size_bound) {
  FCR_ENSURE_ARG(size_bound >= 1, "size bound must be positive");
  sweep_length_ = static_cast<std::size_t>(std::ceil(std::log2(
                      static_cast<double>(std::max<std::size_t>(size_bound, 2))))) +
                  1;
}

std::string DecayKnownN::name() const {
  std::ostringstream os;
  os << "decay(N=" << size_bound_ << ")";
  return os.str();
}

std::unique_ptr<NodeProtocol> DecayKnownN::make_node(NodeId /*id*/, Rng rng) const {
  return std::make_unique<DecayKnownNNode>(sweep_length_, rng);
}

void DecayKnownN::decide(std::uint64_t round, ColumnarState& state,
                         std::span<std::uint64_t> decisions) const {
  const std::uint64_t slot = (round - 1) % sweep_length_;
  state.lanes->bernoulli_all(ladder_probability(slot), decisions);
}

std::unique_ptr<NodeProtocol> DecayDoubling::make_node(NodeId /*id*/,
                                                       Rng rng) const {
  return std::make_unique<DecayDoublingNode>(rng);
}

void DecayDoubling::decide(std::uint64_t round, ColumnarState& state,
                           std::span<std::uint64_t> decisions) const {
  // Same epoch walk as DecayDoublingNode, hoisted out of the per-node loop.
  std::uint64_t r = round - 1;
  std::uint64_t epoch = 1;
  while (r >= epoch) {
    r -= epoch;
    ++epoch;
  }
  state.lanes->bernoulli_all(ladder_probability(r), decisions);
}

}  // namespace fcr
