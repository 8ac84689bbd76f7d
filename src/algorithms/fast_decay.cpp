#include "algorithms/fast_decay.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

class FastDecayNode final : public NodeProtocol {
 public:
  FastDecayNode(double sigma, std::size_t sweep_length, Rng rng)
      : sigma_(sigma), sweep_length_(sweep_length), rng_(rng) {}

  Action on_round_begin(std::uint64_t round) override {
    const std::uint64_t slot = (round - 1) % sweep_length_;
    const double p = 0.5 * std::pow(sigma_, -static_cast<double>(slot));
    return rng_.bernoulli(p) ? Action::kTransmit : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}

 private:
  double sigma_;
  std::size_t sweep_length_;
  Rng rng_;
};

}  // namespace

FastDecay::FastDecay(std::size_t size_bound) : size_bound_(size_bound) {
  FCR_ENSURE_ARG(size_bound >= 2, "size bound must be at least 2");
  const double log_n =
      std::log2(static_cast<double>(std::max<std::size_t>(size_bound_, 4)));
  const double log_log_n = std::max(1.0, std::log2(log_n));
  sigma_ = std::pow(2.0, std::ceil(log_log_n));
  sigma_ = std::max(2.0, sigma_);
  sweep_length_ =
      static_cast<std::size_t>(std::ceil(log_n / std::log2(sigma_))) + 1;
}

std::string FastDecay::name() const {
  std::ostringstream os;
  os << "fast-decay(N=" << size_bound_ << ",sigma=" << sigma_ << ")";
  return os.str();
}

std::unique_ptr<NodeProtocol> FastDecay::make_node(NodeId /*id*/, Rng rng) const {
  return std::make_unique<FastDecayNode>(sigma_, sweep_length_, rng);
}

void FastDecay::decide(std::uint64_t round, ColumnarState& state,
                       std::span<std::uint64_t> decisions) const {
  // Identical expression to FastDecayNode::on_round_begin so the bernoulli
  // thresholds match bit for bit; computed once per round, not per node.
  const std::uint64_t slot = (round - 1) % sweep_length_;
  const double p = 0.5 * std::pow(sigma_, -static_cast<double>(slot));
  state.lanes->bernoulli_all(p, decisions);
}

}  // namespace fcr
