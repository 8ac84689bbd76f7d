#include "algorithms/sift.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

class SiftNode final : public NodeProtocol {
 public:
  SiftNode(std::size_t window, double skew, Rng rng)
      : window_(window), skew_(skew), rng_(rng) {}

  Action on_round_begin(std::uint64_t round) override {
    const std::uint64_t slot = (round - 1) % window_;
    if (slot == 0) pick_slot();
    return slot == chosen_ ? Action::kTransmit : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}

 private:
  void pick_slot() {
    // Inverse-CDF sampling of the truncated geometric:
    // F(s) = (1 - r^{s+1}) / (1 - r^W).
    const double u = rng_.uniform();
    const double target = u * (1.0 - std::pow(skew_, static_cast<double>(window_)));
    chosen_ = static_cast<std::uint64_t>(
        std::floor(std::log1p(-target) / std::log(skew_)));
    if (chosen_ >= window_) chosen_ = window_ - 1;
  }

  std::size_t window_;
  double skew_;
  Rng rng_;
  std::uint64_t chosen_ = 0;
};

}  // namespace

SiftWindow::SiftWindow(std::size_t window, double skew)
    : window_(window), skew_(skew) {
  FCR_ENSURE_ARG(window >= 2, "window must have at least 2 slots");
  FCR_ENSURE_ARG(skew > 0.0 && skew < 1.0, "skew must be in (0,1)");
}

std::string SiftWindow::name() const {
  std::ostringstream os;
  os << "sift(W=" << window_ << ",r=" << skew_ << ")";
  return os.str();
}

double SiftWindow::slot_probability(std::size_t slot) const {
  FCR_ENSURE_ARG(slot < window_, "slot out of window: " << slot);
  const double r = skew_;
  return (1.0 - r) * std::pow(r, static_cast<double>(slot)) /
         (1.0 - std::pow(r, static_cast<double>(window_)));
}

std::unique_ptr<NodeProtocol> SiftWindow::make_node(NodeId /*id*/,
                                                    Rng rng) const {
  return std::make_unique<SiftNode>(window_, skew_, rng);
}

void SiftWindow::decide(std::uint64_t round, ColumnarState& state,
                        std::span<std::uint64_t> decisions) const {
  const std::uint64_t slot = (round - 1) % window_;
  if (slot == 0) {
    // SiftNode::pick_slot per node, with the epoch-constant factors hoisted:
    // pow/log over the same doubles produce the same values here as inside
    // the per-node call, so the floor thresholds match bit for bit. The
    // lanes supply one raw word per node (the draw Rng::uniform() would
    // make); the transcendental transform stays scalar — it is epoch-only,
    // so it is off the per-round hot path.
    const std::span<const std::uint64_t> raw = state.lanes->raw_all();
    const double tail =
        1.0 - std::pow(skew_, static_cast<double>(window_));
    const double log_skew = std::log(skew_);
    for (NodeId id = 0; id < state.node_count; ++id) {
      const double u =
          static_cast<double>(raw[id] >> 11) * 0x1.0p-53;
      const double target = u * tail;
      std::uint64_t chosen = static_cast<std::uint64_t>(
          std::floor(std::log1p(-target) / log_skew));
      if (chosen >= window_) chosen = window_ - 1;
      state.aux[id] = chosen;
    }
  }
  lane_select_equal(state.aux.data(), slot, state.node_count, decisions);
}

}  // namespace fcr
