// Transport-agnostic campaign scheduler core.
//
// PR 5's CampaignRunner fused three concerns into one run() loop: the
// CAMPAIGN LEDGER (which trial is pending/done/quarantined, at which
// attempt, when to snapshot), the EXECUTION BACKEND (how pending trials
// actually get executed — threads here, worker processes elsewhere), and
// the deterministic SINGLE-ATTEMPT semantics (RNG lineage, watchdog,
// failure taxonomy). The fabric (src/fabric/) needs the first and third
// without the second, so this header splits them:
//
//   * CampaignCore    — the ledger. Owns the slot table, resume,
//     checkpoint cadence, the failure log, and final aggregation. It never
//     executes a trial and never touches a socket or a thread pool.
//   * CampaignBackend — the pluggable execution strategy. Given the core
//     and the pending trial list, a backend runs trials however it likes
//     and reports outcomes back through the core's recording methods.
//     LocalBackend (below) is the in-process strategy CampaignRunner
//     always had; fabric::SocketBackend leases shards to fcrw worker
//     processes (src/fabric/coordinator.hpp).
//   * run_trial_attempt / run_shard — the deterministic execution
//     semantics, shared verbatim by every backend AND the fcrw worker
//     binary, so a trial computes bit-identically no matter which process
//     on which host runs it. That shared lineage is the whole bit-identity
//     argument: trial t attempt a is a pure function of (config, t, a).
//
// Thread-safety contract (same as PR 5's in-line loop): slot mutations go
// through begin_attempt/apply_success which touch ONLY slot t — concurrent
// calls for distinct trials are safe without locks; record_failure locks
// internally; everything else (pending, note_progress, maybe_checkpoint,
// merge_entry, finalize) belongs to the backend's scheduling thread.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "util/thread_annotations.hpp"

namespace fcr {

/// Outcome of running a shard (a set of trials) to completion: every trial
/// ends as an entry (done or quarantined); every failed attempt along the
/// way is preserved for the campaign's failure report.
struct ShardOutcome {
  std::vector<CheckpointEntry> entries;
  std::vector<TrialFailure> failures;
};

/// One deterministic attempt of trial `trial`. Attempt 1 uses exactly the
/// run_trials streams, trial_streams(Rng(seed), trial); attempt a > 1
/// re-splits those base streams by the attempt number. The campaign
/// watchdog's round budget lowers the engine's max_rounds, so the run
/// stays in word rounds; an unsolved trial that reaches the budget is
/// a kTimeout failure. On success returns the completed entry (attempts = `attempt`);
/// on failure fills `*failure` (trial/attempt/category/message) and
/// returns nullopt. Never throws on trial failure.
std::optional<CheckpointEntry> run_trial_attempt(const TrialExecutor& executor,
                                                 const CampaignConfig& config,
                                                 std::size_t trial,
                                                 std::uint64_t attempt,
                                                 TrialFailure* failure);

/// Runs `trials` (a lease's shard; retries can make it non-contiguous)
/// serially to completion with the campaign's retry policy: each trial is
/// attempted up to retry.max_attempts times and quarantined after.
/// Outcomes are bit-identical to the pass-based retry of the local backend
/// (a trial's result depends only on its attempt number, never on
/// interleaving). `worker` stamps every failure record; `on_entry`, when
/// set, observes each completed entry in trial order — the fcrw worker
/// uses it to stream heartbeats and persist shard checkpoints between
/// trials.
ShardOutcome run_shard(
    const TrialExecutor& executor, const CampaignConfig& config,
    const std::vector<std::size_t>& trials, const std::string& worker,
    const std::function<void(const CheckpointEntry&)>& on_entry = {});

/// The campaign ledger: slot table + resume + checkpoint cadence +
/// failure log + aggregation. Transport-agnostic by construction.
class CampaignCore {
 public:
  /// Validates the config (same contract as CampaignRunner's constructor:
  /// at least one trial, max_attempts >= 1, resume needs a path, ...).
  /// Holds references; the caller keeps config and executor alive.
  CampaignCore(const CampaignConfig& config, const TrialExecutor& executor);

  const CampaignConfig& config() const { return config_; }
  const TrialExecutor& executor() const { return executor_; }
  std::uint64_t config_hash() const { return cfg_hash_; }

  /// Loads config().checkpoint.path when resume is requested; a rejected
  /// checkpoint records the reason and leaves the campaign fresh.
  void try_resume();

  /// Trials still pending with attempts < retry.max_attempts, ascending.
  std::vector<std::size_t> pending() const;
  /// Trials whose slot is Done or Quarantined.
  std::size_t completed_count() const;
  bool all_resolved() const;

  // ---- recording (see thread-safety contract in the header comment) ----

  /// Marks the start of an attempt on `trial`; returns its 1-based number.
  std::uint64_t begin_attempt(std::size_t trial);
  /// Charges an attempt that aborted before the task body ran (pool-claim
  /// fault): same counter as begin_attempt, named for the audit trail.
  std::uint64_t charge_attempt(std::size_t trial) { return begin_attempt(trial); }
  std::uint64_t attempts(std::size_t trial) const;

  /// Records a successful attempt's result on slot `trial`.
  void apply_success(std::size_t trial, bool solved, std::uint64_t rounds);

  /// Idempotently merges a completed/quarantined entry (from a resume
  /// checkpoint or a fabric shard report). Returns true when the slot was
  /// newly resolved; a duplicate (re-delivered shard result) is a no-op.
  bool merge_entry(const CheckpointEntry& entry);

  /// Appends to the failure log. Thread-safe.
  void record_failure(TrialFailure failure);

  // ---- scheduling-thread bookkeeping ----

  /// Accumulates completions toward the checkpoint cadence.
  void note_progress(std::size_t completions);
  /// Snapshots when the cadence (or `force`) says so; a failed write is
  /// recorded as a campaign warning, never thrown.
  void maybe_checkpoint(bool force);

  /// Quarantines every still-pending trial (pass budget exhausted).
  void quarantine_leftovers();

  /// Aggregates the final CampaignResult. Call once, after the last pass.
  CampaignResult finalize();

 private:
  enum class SlotState : std::uint8_t { kPending, kDone, kQuarantined };
  struct Slot {
    SlotState state = SlotState::kPending;
    bool solved = false;
    std::uint64_t rounds = 0;
    std::uint64_t attempts = 0;
  };

  const CampaignConfig& config_;
  const TrialExecutor& executor_;
  std::uint64_t cfg_hash_;
  std::vector<Slot> slots_;

  Mutex log_m_;
  std::vector<TrialFailure> log_ FCR_GUARDED_BY(log_m_);

  std::size_t dirty_ = 0;  ///< completions since the last snapshot
  std::size_t restored_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t checkpoints_written_ = 0;
  std::string checkpoint_rejected_;
};

/// Pluggable execution strategy. run_campaign() below drives passes; a
/// backend executes one pass over the pending trials, recording outcomes
/// through the core. A backend must not throw on trial failure — only on
/// unusable configuration.
class CampaignBackend {
 public:
  virtual ~CampaignBackend() = default;
  virtual const char* name() const = 0;
  virtual void run_pass(CampaignCore& core,
                        const std::vector<std::size_t>& pending) = 0;
};

/// The in-process backend: the exact PR 5 execution loop. Chunked so
/// snapshots happen DURING a pass; threads == 1 runs serially on the
/// caller (fork-safe); a pool-abort (fault before the task body) charges
/// the failed trial an attempt and leaves unclaimed trials for the next
/// pass.
class LocalBackend final : public CampaignBackend {
 public:
  const char* name() const override { return "local"; }
  void run_pass(CampaignCore& core,
                const std::vector<std::size_t>& pending) override;
};

/// The transport-agnostic scheduler: resume -> attempt passes through the
/// backend (the pass budget bounds pathological retry loops) -> leftover
/// quarantine -> final snapshot -> aggregate. CampaignRunner::run() is
/// exactly this with a LocalBackend.
CampaignResult run_campaign(CampaignCore& core, CampaignBackend& backend);

}  // namespace fcr
