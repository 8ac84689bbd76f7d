// Channels that draw from their own Rng on every resolve, and a fixed
// deployment to run them on. Every trial of a fixed deployment sees the
// same position buffer, so a runner that carried a channel from one trial
// into the next would diverge from run_trials, which builds one per trial.
#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "deploy/generators.hpp"
#include "ext/faults.hpp"
#include "ext/rayleigh.hpp"
#include "sim/runner.hpp"

namespace fcr::stateful_channels {

/// A uniform deployment of n nodes, the same one on every call.
inline DeploymentFactory fixed_uniform(std::size_t n) {
  Rng rng(5);
  return fixed_deployment(
      uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng));
}

/// Rayleigh-faded SINR and lossy SINR; each build is seeded the same.
inline std::vector<ChannelFactory> factories() {
  const ChannelFactory sinr = sinr_channel_factory(3.0, 1.5, 1e-9);
  return {
      [](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
        return std::make_unique<RayleighSinrAdapter>(
            SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link()), 1.0,
            Rng(61));
      },
      [sinr](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
        return std::make_unique<LossyChannelAdapter>(sinr(dep), 0.3, Rng(62));
      }};
}

}  // namespace fcr::stateful_channels
