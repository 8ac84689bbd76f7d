// fcrd coordinator: lease-based shard scheduling over socket workers.
//
// SocketBackend is a CampaignBackend (sim/campaign_core.hpp) that shards
// the pending trial list into fixed-size LEASES and grants them to fcrw
// worker processes over a UNIX socket. The full failure model:
//
//   LEASE LIFE CYCLE      unassigned -> granted(worker, deadline)
//                         -> renewed on heartbeat
//                         -> closed on a valid shard result (ResultAck)
//                         -> revoked back to unassigned on expiry,
//                            worker death, or corrupt delivery
//   WORKER DISCIPLINE     each revocation is a STRIKE; a struck worker
//                         backs off exponentially (base * 2^(strikes-1),
//                         capped, with deterministic seed-keyed jitter)
//                         before its next grant; at max_worker_strikes it
//                         is QUARANTINED — connected but never granted.
//   DEGRADATION LADDER    sockets -> (no live, non-quarantined worker and
//                         nothing outstanding) -> local in-process
//                         execution of the leftover shards, recorded as a
//                         campaign warning. The campaign always finishes.
//
// BIT-IDENTITY. Shard outcomes are computed by the same run_shard used
// everywhere, so a re-granted lease recomputes the identical entries and
// CampaignCore::merge_entry dedups re-deliveries. Kills, partitions,
// drops, duplicates, and reorders therefore change only timing, strikes,
// and retry counters — never the campaign's TrialSetResult. Proven by
// tests/test_fabric.cpp and scripts/fabric_fault_matrix.sh.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fabric/spec.hpp"
#include "fabric/transport.hpp"
#include "sim/campaign_core.hpp"

namespace fcr::fabric {

struct FabricConfig {
  std::string socket_path;
  SweepSpec spec;
  std::size_t lease_trials = 8;        ///< trials per lease
  std::uint64_t lease_timeout_ms = 1000;   ///< missed-heartbeat revocation
  std::uint64_t worker_grace_ms = 2000;    ///< wait for a worker before degrading
  std::size_t max_worker_strikes = 3;      ///< strikes until quarantine
  std::uint64_t backoff_base_ms = 50;
  std::uint64_t backoff_cap_ms = 2000;
  std::uint64_t jitter_seed = 0x5EEDFAB;   ///< keys backoff jitter (replayable)
  bool allow_local_fallback = true;
};

class SocketBackend final : public CampaignBackend {
 public:
  /// Listens on `config.socket_path` from construction to destruction:
  /// workers may dial in before run_with, and the destructor unlinks the
  /// socket file. Throws fcr::Error(kIo) when the path cannot be bound.
  explicit SocketBackend(FabricConfig config);
  ~SocketBackend() override;

  const char* name() const override { return "fabric"; }
  void run_pass(CampaignCore& core,
                const std::vector<std::size_t>& pending) override;

  /// Observability for tests and fcrd's end-of-run summary.
  struct Stats {
    std::size_t leases_granted = 0;
    std::size_t leases_expired = 0;
    std::size_t results_merged = 0;
    std::size_t duplicate_results = 0;
    std::size_t corrupt_results = 0;
    std::size_t worker_strikes = 0;
    std::size_t workers_quarantined = 0;
    std::size_t local_fallback_trials = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Shard {
    std::uint64_t id = 0;
    std::vector<std::uint64_t> trials;
  };
  struct Worker;
  struct Lease;

  void grant_or_defer(CampaignCore& core, Worker& w);
  void revoke_lease(std::uint64_t lease_id, const char* why);
  void strike(Worker& w, const char* why);
  std::uint64_t backoff_ms(const Worker& w) const;
  std::size_t merge_result(CampaignCore& core, const std::string& checkpoint,
                           const std::vector<TrialFailure>& failures);
  void drop_worker(std::size_t index);
  void local_fallback(CampaignCore& core, std::size_t* remaining);

  FabricConfig config_;
  std::string spec_text_;
  std::uint64_t spec_hash_ = 0;
  Stats stats_;

  Fd listener_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::deque<Shard> unassigned_;
  std::vector<std::unique_ptr<Lease>> leases_;  ///< outstanding only
  std::uint64_t next_lease_ = 1;
};

}  // namespace fcr::fabric
