#include "fabric/coordinator.hpp"

#include <algorithm>
#include <utility>

#include <poll.h>
#include <unistd.h>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace fcr::fabric {

struct SocketBackend::Worker {
  explicit Worker(Fd fd) : ch(std::move(fd)) {}
  FrameChannel ch;
  std::string name = "fcrw@?";
  std::size_t strikes = 0;
  std::uint64_t backoff_until = 0;  ///< steady_ms; no grants before this
  bool quarantined = false;
  std::uint64_t lease = 0;  ///< outstanding lease id, 0 = none
};

struct SocketBackend::Lease {
  std::uint64_t id = 0;
  Shard shard;
  std::uint64_t deadline = 0;  ///< steady_ms; renewed by heartbeats
  Worker* owner = nullptr;
};

SocketBackend::SocketBackend(FabricConfig config)
    : config_(std::move(config)),
      spec_text_(serialize_spec(config_.spec)),
      spec_hash_(campaign_config_hash(campaign_config(config_.spec))) {
  FCR_ENSURE_ARG(!config_.socket_path.empty(), "fabric needs a socket path");
  FCR_ENSURE_ARG(config_.lease_trials > 0, "lease_trials must be positive");
  FCR_ENSURE_ARG(config_.lease_timeout_ms > 0,
                 "lease_timeout_ms must be positive");
  FCR_ENSURE_ARG(config_.max_worker_strikes > 0,
                 "max_worker_strikes must be positive");
  listener_ = listen_unix(config_.socket_path);
}

SocketBackend::~SocketBackend() {
  // Best-effort shutdown so fcrw processes exit instead of re-requesting
  // into a dead socket (they would give up on their own, just slower).
  for (const auto& w : workers_) {
    if (w->ch.open()) {
      Frame bye{MsgType::kShutdown, {}};
      // FCRLINT_ALLOW(error-discipline): teardown is best-effort by design
      try { w->ch.send(bye); } catch (...) {}
    }
  }
  ::unlink(config_.socket_path.c_str());
}

std::uint64_t SocketBackend::backoff_ms(const Worker& w) const {
  // Exponential in the strike count, capped, plus deterministic jitter so
  // a struck fleet does not re-request in lockstep. The jitter is keyed by
  // (jitter_seed, strikes, name) — replayable, never from a clock.
  const std::size_t s = std::max<std::size_t>(w.strikes, 1);
  std::uint64_t base = config_.backoff_base_ms;
  for (std::size_t i = 1; i < s && base < config_.backoff_cap_ms; ++i) {
    base *= 2;
  }
  base = std::min(base, config_.backoff_cap_ms);
  std::uint64_t state = config_.jitter_seed ^ (s * 0x9E3779B97F4A7C15ULL);
  for (const char c : w.name) {
    state = (state ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  const std::uint64_t jitter =
      splitmix64(state) % std::max<std::uint64_t>(config_.backoff_base_ms, 1);
  return base + jitter;
}

void SocketBackend::strike(Worker& w, const char* why) {
  ++w.strikes;
  ++stats_.worker_strikes;
  (void)why;
  if (w.strikes >= config_.max_worker_strikes) {
    if (!w.quarantined) ++stats_.workers_quarantined;
    w.quarantined = true;
  } else {
    w.backoff_until = steady_ms() + backoff_ms(w);
  }
}

void SocketBackend::revoke_lease(std::uint64_t lease_id, const char* why) {
  (void)why;
  for (auto it = leases_.begin(); it != leases_.end(); ++it) {
    if ((*it)->id != lease_id) continue;
    if ((*it)->owner != nullptr && (*it)->owner->lease == lease_id) {
      (*it)->owner->lease = 0;
    }
    // Revoked shards go to the FRONT: their trials have waited longest.
    unassigned_.push_front(std::move((*it)->shard));
    leases_.erase(it);
    return;
  }
}

void SocketBackend::drop_worker(std::size_t index) {
  Worker* w = workers_[index].get();
  for (auto& lease : leases_) {
    if (lease->owner == w) lease->owner = nullptr;
  }
  if (w->lease != 0) {
    const std::uint64_t id = w->lease;
    w->lease = 0;
    revoke_lease(id, "worker connection lost");
  }
  workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(index));
}

void SocketBackend::grant_or_defer(CampaignCore& core, Worker& w) {
  const std::uint64_t now = steady_ms();
  if (w.quarantined) {
    w.ch.send(Frame{MsgType::kNoWork,
                    encode_no_work({config_.lease_timeout_ms})});
    return;
  }
  if (now < w.backoff_until) {
    w.ch.send(Frame{MsgType::kNoWork, encode_no_work({w.backoff_until - now})});
    return;
  }
  LeaseGrantMsg grant;
  if (w.lease != 0) {
    const auto it = std::find_if(
        leases_.begin(), leases_.end(),
        [&w](const auto& l) { return l->id == w.lease; });
    // The lease can be gone if another delivery already closed it; fall
    // through to a fresh grant in that case.
    if (it == leases_.end()) w.lease = 0;
    else {
      // Idempotent re-grant: the worker lost (or never saw) the original
      // grant frame. Same lease id, same trials — recomputation is
      // deterministic and merge_entry dedups.
      grant.lease = (*it)->id;
      grant.trials = (*it)->shard.trials;
      (*it)->deadline = now + config_.lease_timeout_ms;
    }
  }
  if (grant.lease == 0) {
    if (unassigned_.empty()) {
      w.ch.send(
          Frame{MsgType::kNoWork, encode_no_work({config_.backoff_base_ms})});
      return;
    }
    auto lease = std::make_unique<Lease>();
    lease->id = next_lease_++;
    lease->shard = std::move(unassigned_.front());
    unassigned_.pop_front();
    lease->deadline = now + config_.lease_timeout_ms;
    lease->owner = &w;
    w.lease = lease->id;
    grant.lease = lease->id;
    grant.trials = lease->shard.trials;
    leases_.push_back(std::move(lease));
    ++stats_.leases_granted;
  }
  grant.config_hash = spec_hash_;
  grant.spec = spec_text_;
  try {
    w.ch.send(Frame{MsgType::kLeaseGrant, encode_lease_grant(grant)},
              "fabric/lease_grant");
  } catch (const Error& e) {
    // An engine action armed at fabric/lease_grant faulted the grant path
    // itself. Record it, take the lease back, and strike the path — the
    // shard is reassigned like any other revocation.
    core.record_failure(
        TrialFailure{kNoIndex, 0, e.category(),
                     std::string("fabric: lease grant failed: ") + e.what(),
                     w.name});
    revoke_lease(grant.lease, "grant path fault");
    strike(w, "grant path fault");
  }
}

std::size_t SocketBackend::merge_result(
    CampaignCore& core, const std::string& checkpoint,
    const std::vector<TrialFailure>& failures) {
  std::size_t merged = 0;
  const auto data = [&]() -> std::optional<CheckpointData> {
    std::string reason;
    const std::uint64_t expected = core.config_hash();
    auto parsed = parse_checkpoint(checkpoint, &expected, &reason);
    if (!parsed || parsed->total_trials != core.config().trial.trials) {
      return std::nullopt;
    }
    return parsed;
  }();
  if (!data) return kNoIndex;  // caller treats as corrupt delivery
  for (const CheckpointEntry& e : data->entries) {
    if (core.merge_entry(e)) ++merged;
  }
  for (const TrialFailure& f : failures) core.record_failure(f);
  core.note_progress(merged);
  core.maybe_checkpoint(false);
  return merged;
}

void SocketBackend::local_fallback(CampaignCore& core,
                                   std::size_t* remaining) {
  std::size_t trials = 0;
  while (!unassigned_.empty()) {
    Shard shard = std::move(unassigned_.front());
    unassigned_.pop_front();
    std::vector<std::size_t> list;
    list.reserve(shard.trials.size());
    for (const std::uint64_t t : shard.trials) {
      list.push_back(static_cast<std::size_t>(t));
    }
    const ShardOutcome out =
        run_shard(core.executor(), core.config(), list, "local-fallback");
    std::size_t merged = 0;
    for (const CheckpointEntry& e : out.entries) {
      if (core.merge_entry(e)) ++merged;
    }
    for (const TrialFailure& f : out.failures) core.record_failure(f);
    core.note_progress(merged);
    core.maybe_checkpoint(false);
    *remaining -= merged;
    trials += list.size();
  }
  stats_.local_fallback_trials += trials;
  core.record_failure(TrialFailure{
      kNoIndex, 0, ErrorCategory::kIo,
      "fabric: no reachable worker; degraded to local execution for " +
          std::to_string(trials) + " trial(s)",
      "fcrd"});
}

void SocketBackend::run_pass(CampaignCore& core,
                             const std::vector<std::size_t>& pending) {
  FCR_ENSURE_ARG(core.config_hash() == spec_hash_,
                 "fabric spec does not describe this campaign "
                 "(config hash mismatch)");

  unassigned_.clear();
  leases_.clear();
  for (std::size_t start = 0; start < pending.size();
       start += config_.lease_trials) {
    const std::size_t end =
        std::min(start + config_.lease_trials, pending.size());
    Shard shard;
    shard.trials.reserve(end - start);
    for (std::size_t k = start; k < end; ++k) {
      shard.trials.push_back(static_cast<std::uint64_t>(pending[k]));
    }
    unassigned_.push_back(std::move(shard));
  }

  std::size_t remaining = pending.size();
  const std::uint64_t pass_start = steady_ms();
  bool ever_connected = !workers_.empty();

  while (remaining > 0) {
    const std::uint64_t now = steady_ms();

    // Expire leases whose heartbeats stopped: the shard is reassigned and
    // the owner struck. A late result for the old lease id is re-acked as
    // a duplicate; its entries merge as no-ops.
    for (std::size_t i = 0; i < leases_.size();) {
      if (now >= leases_[i]->deadline) {
        Worker* owner = leases_[i]->owner;
        const std::uint64_t id = leases_[i]->id;
        ++stats_.leases_expired;
        revoke_lease(id, "lease expired");
        if (owner != nullptr) strike(*owner, "lease expired");
      } else {
        ++i;
      }
    }

    // Degradation ladder: when nothing is in flight and nobody eligible
    // is connected, finish the leftover shards in-process rather than
    // wedging the campaign.
    const bool any_eligible =
        std::any_of(workers_.begin(), workers_.end(), [](const auto& w) {
          return w->ch.open() && !w->quarantined;
        });
    if (!any_eligible && leases_.empty() && !unassigned_.empty()) {
      const bool grace_over = now - pass_start >= config_.worker_grace_ms;
      // A connected-but-useless fleet (every worker quarantined or mid-
      // death) degrades immediately; an EMPTY room waits out the grace
      // period for a late-starting fleet first.
      const bool fleet_failed = ever_connected && !workers_.empty();
      if (grace_over || fleet_failed) {
        if (!config_.allow_local_fallback) {
          throw Error(ErrorCategory::kIo,
                      "fabric: no reachable worker and local fallback is "
                      "disabled");
        }
        local_fallback(core, &remaining);
        continue;
      }
    }

    // Poll the listener and every live connection.
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listener_.get(), POLLIN, 0});
    for (const auto& w : workers_) {
      if (!w->ch.open()) continue;
      short events = POLLIN;
      if (w->ch.want_write()) events |= POLLOUT;
      fds.push_back(pollfd{w->ch.fd(), events, 0});
    }
    ::poll(fds.data(), fds.size(), 20);

    for (Fd c = accept_unix(listener_.get()); c.valid();
         c = accept_unix(listener_.get())) {
      workers_.push_back(std::make_unique<Worker>(std::move(c)));
      ever_connected = true;
    }

    for (std::size_t i = 0; i < workers_.size();) {
      Worker& w = *workers_[i];
      if (!w.ch.open()) {
        drop_worker(i);
        continue;
      }
      bool alive = true;
      try {
        if (w.ch.want_write() && !w.ch.flush()) alive = false;
        if (alive) alive = w.ch.pump();
        while (auto f = w.ch.next()) {
          switch (f->type) {
            case MsgType::kHello:
              w.name = decode_hello(f->payload).worker;
              break;
            case MsgType::kLeaseRequest:
              grant_or_defer(core, w);
              break;
            case MsgType::kHeartbeat: {
              const HeartbeatMsg hb = decode_heartbeat(f->payload);
              for (auto& lease : leases_) {
                if (lease->id == hb.lease && lease->owner == &w) {
                  lease->deadline = steady_ms() + config_.lease_timeout_ms;
                }
              }
              break;
            }
            case MsgType::kShardResult: {
              const ShardResultMsg msg = decode_shard_result(f->payload);
              const auto it = std::find_if(
                  leases_.begin(), leases_.end(),
                  [&msg](const auto& l) { return l->id == msg.lease; });
              if (it == leases_.end()) {
                // Already merged (or revoked): re-ack so the worker can
                // move on. Merging again would be a no-op anyway.
                ++stats_.duplicate_results;
                w.ch.send(Frame{MsgType::kResultAck,
                                encode_result_ack({msg.lease})});
                break;
              }
              const std::size_t merged =
                  merge_result(core, msg.checkpoint, msg.failures);
              if (merged == kNoIndex) {
                ++stats_.corrupt_results;
                core.record_failure(TrialFailure{
                    kNoIndex, 0, ErrorCategory::kCorrupt,
                    "fabric: rejected shard result (bad checkpoint payload)",
                    w.name});
                revoke_lease(msg.lease, "corrupt result");
                strike(w, "corrupt result");
                break;
              }
              remaining -= merged;
              ++stats_.results_merged;
              if ((*it)->owner != nullptr && (*it)->owner->lease == msg.lease) {
                (*it)->owner->lease = 0;
              }
              if (w.lease == msg.lease) w.lease = 0;
              leases_.erase(it);
              w.ch.send(Frame{MsgType::kResultAck,
                              encode_result_ack({msg.lease})});
              break;
            }
            default:
              break;  // coordinator-bound streams carry nothing else
          }
        }
      } catch (const Error& e) {
        // Poisoned stream or malformed payload: reset the connection.
        // The worker reconnects; its lease is revoked below.
        core.record_failure(TrialFailure{
            kNoIndex, 0, e.category(),
            std::string("fabric: dropping connection: ") + e.what(), w.name});
        alive = false;
      }
      if (!alive) {
        drop_worker(i);
        continue;
      }
      ++i;
    }
  }

  // Campaign complete? Tell the fleet to exit; otherwise keep the
  // connections for the next pass.
  if (core.pending().empty()) {
    for (const auto& w : workers_) {
      if (w->ch.open()) {
        w->ch.send(Frame{MsgType::kShutdown, {}});
        w->ch.flush();
      }
    }
    // DRAIN: a worker may still be retrying its last result (its ack-wait
    // timed out, or the ack frame was dropped by an armed fault). Keep
    // answering stragglers — re-ack duplicates, Shutdown late requests —
    // until the fleet has hung up or the deadline passes, so no worker
    // dies abandoned against a vanished socket over work that was merged.
    const std::uint64_t drain_deadline =
        steady_ms() + config_.lease_timeout_ms;
    while (steady_ms() < drain_deadline) {
      std::vector<pollfd> fds;
      fds.push_back(pollfd{listener_.get(), POLLIN, 0});
      bool any_open = false;
      for (const auto& w : workers_) {
        if (!w->ch.open()) continue;
        any_open = true;
        short events = POLLIN;
        if (w->ch.want_write()) events |= POLLOUT;
        fds.push_back(pollfd{w->ch.fd(), events, 0});
      }
      if (!any_open) break;
      ::poll(fds.data(), fds.size(), 20);
      for (Fd c = accept_unix(listener_.get()); c.valid();
           c = accept_unix(listener_.get())) {
        workers_.push_back(std::make_unique<Worker>(std::move(c)));
      }
      for (std::size_t i = 0; i < workers_.size();) {
        Worker& w = *workers_[i];
        if (!w.ch.open()) {
          drop_worker(i);
          continue;
        }
        bool alive = true;
        try {
          if (w.ch.want_write() && !w.ch.flush()) alive = false;
          if (alive) alive = w.ch.pump();
          while (auto f = w.ch.next()) {
            switch (f->type) {
              case MsgType::kLeaseRequest:
                w.ch.send(Frame{MsgType::kShutdown, {}});
                break;
              case MsgType::kShardResult: {
                ++stats_.duplicate_results;
                const ShardResultMsg msg = decode_shard_result(f->payload);
                w.ch.send(Frame{MsgType::kResultAck,
                                encode_result_ack({msg.lease})});
                w.ch.send(Frame{MsgType::kShutdown, {}});
                break;
              }
              default:
                break;  // Hello / stale heartbeats: nothing to do
            }
          }
          // FCRLINT_ALLOW(error-discipline): drain is best-effort — the result is final, a poisoned worker is simply dropped
        } catch (const Error&) {
          alive = false;
        }
        if (!alive) {
          drop_worker(i);
          continue;
        }
        ++i;
      }
    }
  }
}

}  // namespace fcr::fabric
