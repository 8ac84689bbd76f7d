#include "algorithms/no_knockout.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

class NoKnockoutNode final : public NodeProtocol {
 public:
  NoKnockoutNode(double p, Rng rng) : p_(p), rng_(rng) {}

  Action on_round_begin(std::uint64_t /*round*/) override {
    return rng_.bernoulli(p_) ? Action::kTransmit : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}  // deliberately ignores receipt

 private:
  double p_;
  Rng rng_;
};

}  // namespace

NoKnockoutControl::NoKnockoutControl(double broadcast_probability)
    : p_(broadcast_probability) {
  FCR_ENSURE_ARG(p_ > 0.0 && p_ < 1.0,
                 "broadcast probability must be in (0,1), got " << p_);
}

std::string NoKnockoutControl::name() const {
  std::ostringstream os;
  os << "no-knockout(" << p_ << ")";
  return os.str();
}

std::unique_ptr<NodeProtocol> NoKnockoutControl::make_node(NodeId /*id*/,
                                                           Rng rng) const {
  return std::make_unique<NoKnockoutNode>(p_, rng);
}

void NoKnockoutControl::columnar_init(ColumnarState& state) const {
  for (double& slot : state.probability) slot = p_;
}

void NoKnockoutControl::decide(std::uint64_t /*round*/, ColumnarState& state,
                               std::span<std::uint64_t> decisions) const {
  state.lanes->bernoulli_all(p_, decisions);
}

}  // namespace fcr
