// Fault-tolerant campaign layer over the parallel trial runner.
//
// run_trials_parallel is the fast path: one throwing trial aborts the
// whole batch (abort-before-claim) and every completed trial is discarded.
// That is the right contract for tests, and the wrong one for a multi-hour
// sweep. CampaignRunner wraps the same TrialExecutor with sweep-grade
// failure semantics:
//
//   * PER-TRIAL ISOLATION — a failing trial becomes a recorded
//     TrialFailure, never a batch abort; surviving trials keep their
//     results.
//   * BOUNDED RETRY, DETERMINISTIC RNG — attempt 1 of trial t uses exactly
//     the run_trials streams master.split(2t)/split(2t+1); attempt a > 1
//     re-splits those base streams by the attempt number. Other trials'
//     streams are untouched, so every surviving result is bit-identical
//     to a clean run.
//   * QUARANTINE — a trial that fails max_attempts times is excluded from
//     the aggregate and reported, instead of wedging the campaign.
//   * ROUND-BUDGET WATCHDOG — a per-trial round budget, enforced as the
//     engine's round bound; a trial that reaches it unsolved is a kTimeout
//     TrialFailure, retried like any other failure.
//   * CHECKPOINT/RESUME — completed-trial outcomes are snapshotted every
//     `checkpoint.every` completions via write-temp+rename, keyed by a
//     config hash and CRC-validated on load. A campaign killed by SIGKILL
//     resumes from its last snapshot and produces a bit-identical
//     TrialSetResult (proven by tests/test_campaign.cpp).
//
// Failure taxonomy and checkpoint layout are documented in
// docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/parallel_runner.hpp"
#include "util/error.hpp"

namespace fcr {

/// How many times one trial may start before it is quarantined.
struct RetryPolicy {
  std::size_t max_attempts = 3;
};

/// Per-trial deadline in rounds; 0 disables it. The budget caps the
/// engine's max_rounds, so it costs nothing until it fires: the run keeps
/// the columnar loop's word rounds. An unsolved trial that reaches it is a
/// kTimeout failure.
struct WatchdogPolicy {
  std::uint64_t round_budget = 0;  ///< rounds before the trial times out
};

/// Periodic result snapshots. Empty path disables checkpointing.
struct CheckpointPolicy {
  std::string path;
  std::size_t every = 16;  ///< snapshot after this many new completions
  bool resume = false;     ///< load `path` before running, if valid
};

struct CampaignConfig {
  TrialConfig trial;
  /// 1 = run serially on the caller (never touches the thread pool —
  /// fork()-safe); 0 = hardware concurrency via ThreadPool::global().
  std::size_t threads = 1;
  RetryPolicy retry;
  WatchdogPolicy watchdog;
  CheckpointPolicy checkpoint;
  /// Free-form campaign identity (experiment name + parameters), folded
  /// into the config hash so a checkpoint cannot resume a different sweep.
  std::string identity;
};

/// One failed trial attempt, as recorded in the campaign report.
/// trial == kNoIndex marks campaign-level warnings (e.g. a failed
/// checkpoint write) that are not attributable to a trial.
struct TrialFailure {
  std::size_t trial = kNoIndex;
  std::size_t attempt = 0;
  ErrorCategory category = ErrorCategory::kEngine;
  std::string message;
  /// Execution context that ran the failing attempt: "pool#K" for a pool
  /// worker, the caller's thread label, or a fabric worker identity like
  /// "fcrw#2". Empty when the context adds nothing (local serial runs).
  std::string worker;
};

struct CampaignResult {
  /// Aggregate over completed trials, in trial order — bit-identical to
  /// run_trials/run_trials_parallel when nothing failed. Quarantined
  /// trials count toward `trials` but contribute no rounds entry.
  TrialSetResult result;
  std::vector<TrialFailure> failures;  ///< every failed attempt, in order
  std::size_t retried = 0;             ///< trials that needed more than one attempt
  std::size_t quarantined = 0;         ///< trials abandoned after max_attempts
  std::size_t restored = 0;            ///< trials loaded from the checkpoint
  std::size_t checkpoints_written = 0;
  /// Why the resume checkpoint was rejected (empty = loaded or not asked).
  /// A rejected checkpoint falls back to a fresh campaign, never a crash.
  std::string checkpoint_rejected;

  /// Human-readable failure summary, one line per recorded failure.
  std::string failure_report() const;
};

// --------------------------------------------------------------- checkpoint
// Exposed (rather than private to the runner) so corruption tests can
// construct, damage, and re-validate snapshots directly.

struct CheckpointEntry {
  std::uint64_t trial = 0;
  bool solved = false;
  bool quarantined = false;
  std::uint64_t rounds = 0;
  std::uint64_t attempts = 0;
};

struct CheckpointData {
  std::uint64_t config_hash = 0;
  std::uint64_t total_trials = 0;
  std::vector<CheckpointEntry> entries;
};

/// FNV-1a over the fields that determine trial outcomes (seed, trial
/// count, engine budget, watchdog round budget, identity). Two configs
/// with equal hashes produce interchangeable checkpoints.
std::uint64_t campaign_config_hash(const CampaignConfig& config);

/// The FCRCKPT1 byte layout, without file I/O. The fabric reuses these
/// bytes verbatim as shard/wire state (a shard result payload IS a
/// serialized checkpoint), so the one serializer feeds both the snapshot
/// file and the wire.
std::string serialize_checkpoint(const CheckpointData& data);

/// Validates and decodes FCRCKPT1 bytes: magic, version, CRC32, config
/// hash (when expected_hash is non-null), entry bounds, duplicate trials.
/// Returns nullopt with a one-line reason on ANY validation failure.
std::optional<CheckpointData> parse_checkpoint(std::string_view bytes,
                                               const std::uint64_t* expected_hash,
                                               std::string* reason);

/// Atomically replaces `path` with a snapshot (write temp + rename).
/// Throws fcr::Error(kIo) on I/O failure — the campaign records that as a
/// warning and keeps running.
void write_checkpoint(const std::string& path, const CheckpointData& data);

/// Loads and validates a snapshot: magic, version, CRC32, config hash
/// (when expected_hash is non-null), entry bounds, duplicate trials.
/// Returns nullopt with a one-line reason on ANY validation failure —
/// truncation, bit flips, and hash mismatches all land here.
std::optional<CheckpointData> load_checkpoint(
    const std::string& path, const std::uint64_t* expected_hash,
    std::string* reason);

// ------------------------------------------------------------------ runner

class CampaignBackend;  // sim/campaign_core.hpp

class CampaignRunner {
 public:
  /// Factories are copied; they must be thread-safe to call concurrently
  /// when threads != 1 (same contract as run_trials_parallel).
  CampaignRunner(DeploymentFactory make_deployment, ChannelFactory make_channel,
                 AlgorithmFactory make_algorithm, CampaignConfig config);

  /// Executes the campaign: resume (optional) -> attempt passes with
  /// retry/quarantine -> aggregate. Does not throw on trial failure; only
  /// unusable configuration throws (std::invalid_argument).
  CampaignResult run();

  /// Same campaign, driven through an explicit execution backend — the
  /// fabric coordinator passes its SocketBackend here. run() is exactly
  /// run_with(LocalBackend{}).
  CampaignResult run_with(CampaignBackend& backend);

  const CampaignConfig& config() const { return config_; }

 private:
  DeploymentFactory make_deployment_;
  ChannelFactory make_channel_;
  AlgorithmFactory make_algorithm_;
  CampaignConfig config_;
};

}  // namespace fcr
