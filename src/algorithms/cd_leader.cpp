#include "algorithms/cd_leader.hpp"


#include "util/check.hpp"

namespace fcr {
namespace {

class CdLeaderNode final : public NodeProtocol {
 public:
  CdLeaderNode(double p, Rng rng) : p_(p), rng_(rng) {}

  Action on_round_begin(std::uint64_t /*round*/) override {
    if (!candidate_) return Action::kListen;
    return rng_.bernoulli(p_) ? Action::kTransmit : Action::kListen;
  }

  void on_round_end(const Feedback& feedback) override {
    if (!candidate_ || feedback.transmitted) return;
    // A listening candidate that hears activity withdraws.
    if (feedback.observation == RadioObservation::kMessage ||
        feedback.observation == RadioObservation::kCollision) {
      candidate_ = false;
    }
  }

  bool is_contending() const override { return candidate_; }

 private:
  double p_;
  Rng rng_;
  bool candidate_ = true;
};

}  // namespace

CollisionDetectLeader::CollisionDetectLeader(double transmit_probability)
    : p_(transmit_probability) {
  FCR_ENSURE_ARG(p_ > 0.0 && p_ < 1.0,
                 "transmit probability must be in (0,1), got " << p_);
}

std::unique_ptr<NodeProtocol> CollisionDetectLeader::make_node(NodeId /*id*/,
                                                               Rng rng) const {
  return std::make_unique<CdLeaderNode>(p_, rng);
}

}  // namespace fcr
