#include "algorithms/backoff.hpp"


#include "util/rng_lanes.hpp"

// FCRLINT_ALLOW(ensure-arg): make_node accepts any id and any Rng stream;
// the protocol has no parameters with invalid values.

namespace fcr {
namespace {

class BackoffNode final : public NodeProtocol {
 public:
  explicit BackoffNode(Rng rng) : rng_(rng) {}

  Action on_round_begin(std::uint64_t round) override {
    if (round > epoch_end_) {
      // Start epoch e: window doubles; pick the transmission slot.
      epoch_start_ = epoch_end_ + 1;
      window_ *= 2;
      epoch_end_ = epoch_start_ + window_ - 1;
      slot_ = epoch_start_ + rng_.uniform_int(window_);
    }
    return round == slot_ ? Action::kTransmit : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}

 private:
  Rng rng_;
  std::uint64_t window_ = 1;       ///< doubles at each epoch start
  std::uint64_t epoch_start_ = 1;
  std::uint64_t epoch_end_ = 0;    ///< 0 forces epoch setup on round 1
  std::uint64_t slot_ = 0;
};

}  // namespace

std::unique_ptr<NodeProtocol> BinaryExponentialBackoff::make_node(
    NodeId /*id*/, Rng rng) const {
  return std::make_unique<BackoffNode>(rng);
}

void BinaryExponentialBackoff::decide(
    std::uint64_t round, ColumnarState& state,
    std::span<std::uint64_t> decisions) const {
  // The engine visits rounds 1, 2, 3, ... consecutively, so BackoffNode's
  // lazy "round > epoch_end_" re-draw fires exactly at the epoch-start
  // rounds 2^e - 1 (1, 3, 7, 15, ...), where the window is round + 1: every
  // node draws its slot once at those rounds and only those. The window is
  // a power of two, which is exactly the single-draw masked case of
  // Rng::uniform_int, so each lane draws what BackoffNode draws.
  if (((round + 1) & round) == 0) {
    state.lanes->uniform_offsets_pow2(round, round + 1, state.aux.data());
  }
  lane_select_equal(state.aux.data(), round, state.node_count, decisions);
}

}  // namespace fcr
