#include "sim/campaign_core.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "sim/thread_pool.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace fcr {

std::optional<CheckpointEntry> run_trial_attempt(const TrialExecutor& executor,
                                                 const CampaignConfig& config,
                                                 std::size_t trial,
                                                 std::uint64_t attempt,
                                                 TrialFailure* failure) {
  try {
    FCR_FAILPOINT("campaign/trial");
    // Attempt 1 replays run_trials exactly; later attempts re-split the
    // SAME base streams by the attempt number, so a retry perturbs no
    // other trial and is itself replayable.
    TrialStreams streams = trial_streams(Rng(config.trial.seed), trial);
    if (attempt > 1) {
      streams.deploy = streams.deploy.split(attempt);
      streams.run = streams.run.split(attempt);
    }
    const std::uint64_t round_budget = config.watchdog.round_budget;
    EngineConfig engine = config.trial.engine;
    // The round budget lowers the engine's own bound instead of adding a
    // stop_when hook, so the run stays unobserved and keeps the bitmask
    // loop; an unsolved run that reaches it is a timeout. A budget above
    // max_rounds can never trip.
    const bool budget_bounds =
        round_budget > 0 && round_budget <= engine.max_rounds;
    if (budget_bounds) engine.max_rounds = round_budget;
    const RunResult r = executor.run(engine, streams.deploy, streams.run);
    if (!r.solved && budget_bounds && r.rounds == round_budget) {
      TrialProvenance prov;
      prov.round = round_budget;
      throw Error(ErrorCategory::kTimeout,
                  "trial exceeded its watchdog deadline", std::move(prov));
    }
    return CheckpointEntry{trial, r.solved, false, r.rounds, attempt};
  } catch (const Error& e) {
    *failure = TrialFailure{trial, static_cast<std::size_t>(attempt),
                            e.category(), e.what(), {}};
  } catch (const std::exception& e) {
    *failure = TrialFailure{trial, static_cast<std::size_t>(attempt),
                            ErrorCategory::kEngine, e.what(), {}};
  } catch (...) {
    *failure = TrialFailure{trial, static_cast<std::size_t>(attempt),
                            ErrorCategory::kEngine, "non-standard exception", {}};
  }
  return std::nullopt;
}

ShardOutcome run_shard(
    const TrialExecutor& executor, const CampaignConfig& config,
    const std::vector<std::size_t>& trials, const std::string& worker,
    const std::function<void(const CheckpointEntry&)>& on_entry) {
  ShardOutcome out;
  out.entries.reserve(trials.size());
  for (const std::size_t t : trials) {
    FCR_ENSURE_ARG(t < config.trial.trials,
                   "shard trial " << t << " out of range");
    std::uint64_t attempt = 0;
    std::optional<CheckpointEntry> entry;
    while (!entry && attempt < config.retry.max_attempts) {
      ++attempt;
      TrialFailure failure;
      entry = run_trial_attempt(executor, config, t, attempt, &failure);
      if (!entry) {
        failure.worker = worker;
        out.failures.push_back(std::move(failure));
      }
    }
    if (!entry) {
      // Retry budget exhausted: quarantine, exactly like the local
      // backend's leftover sweep (solved=false, rounds=0).
      entry = CheckpointEntry{t, false, true, 0, attempt};
    }
    out.entries.push_back(*entry);
    if (on_entry) on_entry(*entry);
  }
  return out;
}

CampaignCore::CampaignCore(const CampaignConfig& config,
                           const TrialExecutor& executor)
    : config_(config),
      executor_(executor),
      cfg_hash_(campaign_config_hash(config)),
      slots_(config.trial.trials) {
  FCR_ENSURE_ARG(config.trial.trials > 0, "need at least one trial");
  FCR_ENSURE_ARG(config.retry.max_attempts > 0,
                 "retry.max_attempts must be at least 1");
  FCR_ENSURE_ARG(!config.checkpoint.resume || !config.checkpoint.path.empty(),
                 "--resume needs a checkpoint path");
  FCR_ENSURE_ARG(config.checkpoint.path.empty() || config.checkpoint.every > 0,
                 "checkpoint.every must be at least 1");
}

void CampaignCore::try_resume() {
  if (!config_.checkpoint.resume) return;
  std::string reason;
  const auto loaded =
      load_checkpoint(config_.checkpoint.path, &cfg_hash_, &reason);
  if (loaded && loaded->total_trials == config_.trial.trials) {
    for (const CheckpointEntry& e : loaded->entries) {
      if (merge_entry(e)) ++restored_;
    }
  } else {
    checkpoint_rejected_ =
        loaded ? "checkpoint trial count does not match this campaign"
               : reason;
  }
}

std::vector<std::size_t> CampaignCore::pending() const {
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    if (slots_[t].state == SlotState::kPending &&
        slots_[t].attempts < config_.retry.max_attempts) {
      out.push_back(t);
    }
  }
  return out;
}

std::size_t CampaignCore::completed_count() const {
  std::size_t done = 0;
  for (const Slot& s : slots_) {
    if (s.state != SlotState::kPending) ++done;
  }
  return done;
}

bool CampaignCore::all_resolved() const {
  return completed_count() == slots_.size();
}

std::uint64_t CampaignCore::begin_attempt(std::size_t trial) {
  return ++slots_[trial].attempts;
}

std::uint64_t CampaignCore::attempts(std::size_t trial) const {
  return slots_[trial].attempts;
}

void CampaignCore::apply_success(std::size_t trial, bool solved,
                                 std::uint64_t rounds) {
  Slot& slot = slots_[trial];
  slot.solved = solved;
  slot.rounds = rounds;
  slot.state = SlotState::kDone;
}

bool CampaignCore::merge_entry(const CheckpointEntry& entry) {
  if (entry.trial >= slots_.size()) return false;
  Slot& slot = slots_[static_cast<std::size_t>(entry.trial)];
  if (slot.state != SlotState::kPending) return false;
  slot.state = entry.quarantined ? SlotState::kQuarantined : SlotState::kDone;
  slot.solved = entry.solved;
  slot.rounds = entry.rounds;
  slot.attempts = entry.attempts;
  if (entry.quarantined) ++quarantined_;
  return true;
}

void CampaignCore::record_failure(TrialFailure failure) {
  const MutexLock lock(log_m_);
  log_.push_back(std::move(failure));
}

void CampaignCore::note_progress(std::size_t completions) {
  dirty_ += completions;
}

void CampaignCore::maybe_checkpoint(bool force) {
  if (config_.checkpoint.path.empty() || dirty_ == 0) return;
  if (!force && dirty_ < config_.checkpoint.every) return;
  CheckpointData data;
  data.config_hash = cfg_hash_;
  data.total_trials = config_.trial.trials;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    const Slot& s = slots_[t];
    if (s.state == SlotState::kPending) continue;
    data.entries.push_back(CheckpointEntry{
        t, s.solved, s.state == SlotState::kQuarantined, s.rounds, s.attempts});
  }
  try {
    write_checkpoint(config_.checkpoint.path, data);
    ++checkpoints_written_;
    dirty_ = 0;
  } catch (const Error& e) {
    // A failed snapshot must never kill the campaign it protects.
    record_failure(TrialFailure{kNoIndex, 0, e.category(), e.what(), {}});
  } catch (const std::exception& e) {
    record_failure(TrialFailure{kNoIndex, 0, ErrorCategory::kIo, e.what(), {}});
  }
}

void CampaignCore::quarantine_leftovers() {
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kPending) {
      slot.state = SlotState::kQuarantined;
      ++quarantined_;
      ++dirty_;
    }
  }
}

CampaignResult CampaignCore::finalize() {
  CampaignResult out;
  out.result.trials = config_.trial.trials;
  for (const Slot& slot : slots_) {
    if (slot.state == SlotState::kDone && slot.solved) {
      ++out.result.solved;
      out.result.rounds.push_back(slot.rounds);
    }
    if (slot.attempts > 1) ++out.retried;
  }
  {
    const MutexLock lock(log_m_);
    out.failures = std::move(log_);
    log_.clear();
  }
  out.quarantined = quarantined_;
  out.restored = restored_;
  out.checkpoints_written = checkpoints_written_;
  out.checkpoint_rejected = checkpoint_rejected_;
  return out;
}

void LocalBackend::run_pass(CampaignCore& core,
                            const std::vector<std::size_t>& pending) {
  const CampaignConfig& config = core.config();
  std::size_t threads = config.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<std::size_t>(threads, config.trial.trials);
  const bool checkpointing = !config.checkpoint.path.empty();

  const auto run_one = [&core](std::size_t t) {
    const std::uint64_t attempt = core.begin_attempt(t);
    TrialFailure failure;
    if (const auto entry = run_trial_attempt(core.executor(), core.config(), t,
                                             attempt, &failure)) {
      core.apply_success(t, entry->solved, entry->rounds);
    } else {
      core.record_failure(std::move(failure));
    }
  };

  // Chunked so snapshots happen DURING the pass, not only between passes;
  // without checkpointing one chunk spans the whole pass.
  const std::size_t chunk_size =
      checkpointing ? std::max(config.checkpoint.every, threads)
                    : pending.size();
  for (std::size_t start = 0; start < pending.size(); start += chunk_size) {
    const std::size_t end = std::min(start + chunk_size, pending.size());
    const std::size_t before = core.completed_count();
    if (threads == 1) {
      // Serial path: never touches the thread pool, so a campaign works
      // in a fork()ed child (the SIGKILL/resume integration test).
      for (std::size_t k = start; k < end; ++k) run_one(pending[k]);
    } else {
      try {
        ThreadPool::global().for_each(
            end - start, [&](std::size_t k) { run_one(pending[start + k]); },
            threads);
      } catch (const Error& e) {
        // The pool itself aborted the chunk (a fault fired before the
        // task body could run and catch it, e.g. an injected pool/claim
        // failure). Charge the failed trial an attempt; unclaimed trials
        // are untouched and retried next pass.
        const std::size_t k = e.provenance().task;
        std::size_t t = kNoIndex;
        std::size_t attempt = 0;
        if (k != kNoIndex && start + k < end) {
          t = pending[start + k];
          attempt = static_cast<std::size_t>(core.charge_attempt(t));
        }
        TrialFailure f{t, attempt, e.category(), e.what(), {}};
        f.worker = e.provenance().worker;
        core.record_failure(std::move(f));
      }
    }
    core.note_progress(core.completed_count() - before);
    core.maybe_checkpoint(false);
  }
}

CampaignResult run_campaign(CampaignCore& core, CampaignBackend& backend) {
  core.try_resume();
  // Attempt passes. The pass budget bounds pathological cases (e.g. a
  // periodic pool/claim fault that keeps aborting batches without
  // consuming attempts); leftovers are quarantined, never spun on.
  const std::size_t max_passes =
      std::max<std::size_t>(2 * core.config().retry.max_attempts, 8);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    const std::vector<std::size_t> pending = core.pending();
    if (pending.empty()) break;
    backend.run_pass(core, pending);
  }
  core.quarantine_leftovers();
  core.maybe_checkpoint(true);
  return core.finalize();
}

}  // namespace fcr
