#include "core/fading_cr.hpp"

#include <bit>
#include <sstream>

#include "util/check.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {

Action FadingNode::on_round_begin(std::uint64_t /*round*/) {
  if (!active_) return Action::kListen;
  return rng_.bernoulli(p_) ? Action::kTransmit : Action::kListen;
}

void FadingNode::on_round_end(const Feedback& feedback) {
  // The knockout rule: an active node that decodes any message goes
  // inactive. Inactive nodes never transmit again (they only listen).
  if (feedback.received) active_ = false;
}

FadingContentionResolution::FadingContentionResolution(double broadcast_probability)
    : p_(broadcast_probability) {
  FCR_ENSURE_ARG(p_ > 0.0 && p_ < 1.0,
                 "broadcast probability must be in (0, 1), got " << p_);
}

std::string FadingContentionResolution::name() const {
  std::ostringstream os;
  os << "fading-const-p(" << p_ << ")";
  return os.str();
}

std::unique_ptr<NodeProtocol> FadingContentionResolution::make_node(
    NodeId /*id*/, Rng rng) const {
  return std::make_unique<FadingNode>(p_, rng);
}

void FadingContentionResolution::columnar_init(ColumnarState& state) const {
  for (double& p : state.probability) p = p_;
}

void FadingContentionResolution::decide(
    std::uint64_t /*round*/, ColumnarState& state,
    std::span<std::uint64_t> decisions) const {
  // Bernoulli sweep over the active bitmask: inactive nodes draw nothing,
  // exactly like an inactive FadingNode's on_round_begin early return, and
  // per-node probabilities live in the (lane-padded) probability column.
  state.lanes->bernoulli_active(state.active, state.probability.data(),
                                decisions);
}

void FadingContentionResolution::columnar_feedback(
    ColumnarState& state, std::span<const std::uint64_t> received) const {
  // The knockout rule as bitmask clears. Materialized rounds also report
  // listeners that are already inactive; deactivate() is idempotent, so
  // those are no-ops just as FadingNode::on_round_end is for them.
  for (std::size_t w = 0; w < received.size(); ++w) {
    std::uint64_t bits = received[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      state.deactivate(
          static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
    }
  }
}

}  // namespace fcr
