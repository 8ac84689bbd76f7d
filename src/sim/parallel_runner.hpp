// Parallel trial execution.
//
// Trials are embarrassingly parallel AND deterministically seeded (trial t
// always derives its streams from master.split(2t), master.split(2t+1),
// and builds its own channel and algorithm), so a multi-threaded batch
// produces BIT-IDENTICAL results to the serial runner, stateful channels
// included — verified by tests. Use it for large sweeps; the serial
// run_trials remains the reference implementation.
//
// Thread-safety audit (for Clang's -Wthread-safety, which sees no locks
// here because there are none to see): the runner owns no mutexes. Workers
// write only to their own pre-sized result slot (slots[t]), the factories
// are required to be safe for concurrent CALLS, and all synchronization —
// distribution, abort, join — lives inside the annotated ThreadPool
// (sim/thread_pool.hpp). Rng streams are derived per trial via split(),
// never copied across trials (enforced by fcrlint's rng-flow rule).
#pragma once

#include <cstddef>

#include "sim/runner.hpp"

namespace fcr {

/// One trial of run_trials, from a factory triple and pre-split Rng
/// streams: generate the deployment, build the channel and the algorithm,
/// run the execution. Nothing is reused across trials, so a trial's result
/// depends only on its streams, never on which thread ran it or what that
/// thread ran before.
///
/// Shared by run_trials_parallel, the campaign and the fabric worker so a
/// retried trial goes through byte-for-byte the same execution path as the
/// original attempt. Holds references to the factories: the caller keeps
/// them alive for the executor's lifetime.
class TrialExecutor {
 public:
  TrialExecutor(const DeploymentFactory& make_deployment,
                const ChannelFactory& make_channel,
                const AlgorithmFactory& make_algorithm);

  /// Runs one trial: generate the deployment from deploy_rng, build
  /// channel + algorithm, execute with run_rng. Thread-safe for concurrent
  /// calls (per-thread workspaces). Throws on factory or engine failure;
  /// the caller attaches trial provenance.
  RunResult run(const EngineConfig& engine, Rng deploy_rng, Rng run_rng) const;

 private:
  const DeploymentFactory& make_deployment_;
  const ChannelFactory& make_channel_;
  const AlgorithmFactory& make_algorithm_;
};

/// Like run_trials, but distributes trials over `threads` worker threads
/// (0 = hardware concurrency). Factories must be thread-safe to CALL
/// concurrently (the library's factories are: they only read shared state
/// and construct fresh objects). Results are identical to run_trials with
/// the same config. A failing trial aborts the batch (abort-before-claim)
/// and resurfaces here as fcr::Error with trial provenance attached; for
/// per-trial isolation instead of batch abort, use CampaignRunner
/// (sim/campaign.hpp).
TrialSetResult run_trials_parallel(const DeploymentFactory& make_deployment,
                                   const ChannelFactory& make_channel,
                                   const AlgorithmFactory& make_algorithm,
                                   const TrialConfig& config,
                                   std::size_t threads = 0);

}  // namespace fcr
