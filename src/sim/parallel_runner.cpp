#include "sim/parallel_runner.hpp"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "sim/thread_pool.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fcr {

TrialExecutor::TrialExecutor(const DeploymentFactory& make_deployment,
                             const ChannelFactory& make_channel,
                             const AlgorithmFactory& make_algorithm)
    : make_deployment_(make_deployment),
      make_channel_(make_channel),
      make_algorithm_(make_algorithm) {
  FCR_ENSURE_ARG(make_deployment_ && make_channel_ && make_algorithm_,
                 "all three factories must be set");
}

RunResult TrialExecutor::run(const EngineConfig& engine, Rng deploy_rng,
                             Rng run_rng) const {
  const Deployment dep = make_deployment_(deploy_rng);
  FCR_FAILPOINT("channel/build");
  const std::unique_ptr<ChannelAdapter> channel = make_channel_(dep);
  const std::unique_ptr<Algorithm> algorithm = make_algorithm_(dep);
  FCR_CHECK(channel != nullptr && algorithm != nullptr);
  return run_execution(dep, *algorithm, *channel, engine, run_rng);
}

TrialSetResult run_trials_parallel(const DeploymentFactory& make_deployment,
                                   const ChannelFactory& make_channel,
                                   const AlgorithmFactory& make_algorithm,
                                   const TrialConfig& config,
                                   std::size_t threads) {
  FCR_ENSURE_ARG(config.trials > 0, "need at least one trial");
  FCR_ENSURE_ARG(make_deployment && make_channel && make_algorithm,
                 "all three factories must be set");
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min<std::size_t>(threads, config.trials);

  const Rng master(config.seed);
  const TrialExecutor executor(make_deployment, make_channel, make_algorithm);

  // Per-trial slots, filled independently; order restored afterwards so the
  // aggregate is identical to the serial runner's. Determinism comes from
  // the SEEDING, not the schedule: trial t always derives its streams from
  // trial_streams(master, t), whatever thread runs it.
  struct Slot {
    bool solved = false;
    std::uint64_t rounds = 0;
  };
  std::vector<Slot> slots(config.trials);

  const auto run_one = [&](std::size_t t) {
    const TrialStreams streams = trial_streams(master, t);
    const RunResult r = executor.run(config.engine, streams.deploy, streams.run);
    slots[t].solved = r.solved;
    slots[t].rounds = r.rounds;
  };

  // The persistent pool distributes trials; after a failure no new trial
  // is claimed, and the first exception resurfaces here with the failed
  // TASK index attached by the pool — which for this batch IS the trial
  // index, so callers get full provenance (seed + trial) without a
  // message parse.
  try {
    ThreadPool::global().for_each(config.trials, run_one, threads);
  } catch (const Error& e) {
    throw e.with_trial(config.seed, e.provenance().task);
  }

  TrialSetResult out;
  out.trials = config.trials;
  for (const Slot& s : slots) {
    if (s.solved) {
      ++out.solved;
      out.rounds.push_back(s.rounds);
    }
  }
  return out;
}

}  // namespace fcr
