#include "algorithms/aloha.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

class AlohaNode final : public NodeProtocol {
 public:
  AlohaNode(double p, Rng rng) : p_(p), rng_(rng) {}

  Action on_round_begin(std::uint64_t /*round*/) override {
    return rng_.bernoulli(p_) ? Action::kTransmit : Action::kListen;
  }

  void on_round_end(const Feedback&) override {}

 private:
  double p_;
  Rng rng_;
};

}  // namespace

SlottedAloha::SlottedAloha(std::size_t size_bound) : size_bound_(size_bound) {
  FCR_ENSURE_ARG(size_bound >= 1, "size bound must be positive");
}

std::string SlottedAloha::name() const {
  std::ostringstream os;
  os << "aloha(N=" << size_bound_ << ")";
  return os.str();
}

std::unique_ptr<NodeProtocol> SlottedAloha::make_node(NodeId /*id*/,
                                                      Rng rng) const {
  return std::make_unique<AlohaNode>(1.0 / static_cast<double>(size_bound_), rng);
}

void SlottedAloha::columnar_init(ColumnarState& state) const {
  // Published for instrumentation; the decide pass uses the shared value.
  const double p = 1.0 / static_cast<double>(size_bound_);
  for (double& slot : state.probability) slot = p;
}

void SlottedAloha::decide(std::uint64_t /*round*/, ColumnarState& state,
                          std::span<std::uint64_t> decisions) const {
  state.lanes->bernoulli_all(1.0 / static_cast<double>(size_bound_),
                             decisions);
}

}  // namespace fcr
