#include "sim/runner.hpp"

#include <utility>

#include "util/check.hpp"

namespace fcr {

TrialSetResult run_trials(const DeploymentFactory& make_deployment,
                          const ChannelFactory& make_channel,
                          const AlgorithmFactory& make_algorithm,
                          const TrialConfig& config) {
  FCR_ENSURE_ARG(config.trials > 0, "need at least one trial");
  FCR_ENSURE_ARG(make_deployment && make_channel && make_algorithm,
                 "all three factories must be set");

  const Rng master(config.seed);
  TrialSetResult out;
  out.trials = config.trials;
  out.rounds.reserve(config.trials);

  for (std::size_t t = 0; t < config.trials; ++t) {
    TrialStreams streams = trial_streams(master, t);
    const Deployment dep = make_deployment(streams.deploy);
    const std::unique_ptr<ChannelAdapter> channel = make_channel(dep);
    const std::unique_ptr<Algorithm> algorithm = make_algorithm(dep);
    FCR_CHECK(channel != nullptr && algorithm != nullptr);

    const RunResult r =
        run_execution(dep, *algorithm, *channel, config.engine, streams.run);
    if (r.solved) {
      ++out.solved;
      out.rounds.push_back(r.rounds);
    }
  }
  return out;
}

ChannelFactory sinr_channel_factory(double alpha, double beta, double noise,
                                    double power_margin) {
  return [=](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
    const double longest = dep.size() >= 2 ? dep.max_link() : 1.0;
    const SinrParams params =
        SinrParams::for_longest_link(alpha, beta, noise, longest, power_margin);
    return make_sinr_adapter(params);
  };
}

ChannelFactory radio_channel_factory(bool collision_detection) {
  return [=](const Deployment&) {
    return make_radio_adapter(collision_detection);
  };
}

DeploymentFactory fixed_deployment(Deployment dep) {
  auto shared = std::make_shared<Deployment>(dep.normalized());
  return [shared](Rng&) { return *shared; };
}

}  // namespace fcr
