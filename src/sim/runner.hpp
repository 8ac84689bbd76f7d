// Multi-trial experiment runner: repeats (generate deployment -> build
// channel -> build algorithm -> run execution) with split random streams and
// aggregates completion rounds.
//
// Factories take the deployment so that size-aware baselines (ALOHA, Decay
// with known N) and deployment-aware channels (single-hop power derived from
// R) can be configured per trial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "deploy/deployment.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "stats/summary.hpp"

namespace fcr {

using DeploymentFactory = std::function<Deployment(Rng&)>;
using AlgorithmFactory =
    std::function<std::unique_ptr<Algorithm>(const Deployment&)>;
using ChannelFactory =
    std::function<std::unique_ptr<ChannelAdapter>(const Deployment&)>;

/// Aggregated outcome of a batch of independent executions.
struct TrialSetResult {
  std::size_t trials = 0;
  std::size_t solved = 0;
  /// Completion round of every *solved* trial.
  std::vector<std::uint64_t> rounds;

  double solve_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(solved) / static_cast<double>(trials);
  }
  BatchSummary summary() const { return BatchSummary::of(to_doubles(rounds)); }
};

/// Trial batch configuration.
struct TrialConfig {
  std::size_t trials = 50;
  std::uint64_t seed = 20160725;  ///< PODC'16 started July 25, 2016
  EngineConfig engine;
};

/// The two streams of trial `trial` under `master`: its deployment draws
/// from master.split(2 * trial) and its execution from
/// master.split(2 * trial + 1). Every trial runner, a campaign's first
/// attempt and fcrsim's instance description take a trial's streams from
/// here, so trial t is the same instance wherever it is built.
struct TrialStreams {
  Rng deploy;
  Rng run;
};
inline TrialStreams trial_streams(const Rng& master, std::size_t trial) {
  return {master.split(2 * trial), master.split(2 * trial + 1)};
}

/// Runs `config.trials` independent executions; trial t uses
/// trial_streams(Rng(config.seed), t).
TrialSetResult run_trials(const DeploymentFactory& make_deployment,
                          const ChannelFactory& make_channel,
                          const AlgorithmFactory& make_algorithm,
                          const TrialConfig& config);

/// Channel factory for the paper's setting: SINR channel whose power is set
/// from the deployment's link ratio via the single-hop bound.
ChannelFactory sinr_channel_factory(double alpha, double beta, double noise,
                                    double power_margin = 2.0);

/// Channel factory for the classical radio model baselines.
ChannelFactory radio_channel_factory(bool collision_detection);

/// Deployment factory that always returns (a normalized copy of) `dep`.
DeploymentFactory fixed_deployment(Deployment dep);

}  // namespace fcr
