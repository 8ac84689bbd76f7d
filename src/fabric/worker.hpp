// fcrw worker: lease execution loop for the campaign fabric.
//
// A worker is intentionally stateless between leases: it connects, says
// Hello, and then loops lease-request -> compute -> report until the
// coordinator says Shutdown. Everything it needs to compute a shard
// travels IN the grant (the serialized SweepSpec + explicit trial list),
// and the shard outcome travels back as PR 5 checkpoint bytes — so a
// worker that crashes mid-lease loses nothing but time: the coordinator
// re-grants, and the replacement recomputes bit-identical entries through
// the same run_shard everybody uses.
//
// Loss handling is retry-driven end to end: a lost grant times out and is
// re-requested (the coordinator re-grants the SAME lease); a lost result
// is re-sent until acked (duplicates merge as no-ops); a lost connection
// is re-dialed and the loop restarts from lease-request.
//
// An idle worker waits on its socket, never on a timer: a NoWork reply
// is a wait on the connection for the coordinator's backoff, so the
// Shutdown that ends a campaign ends that wait at once.
#pragma once

#include <cstdint>
#include <string>

namespace fcr::fabric {

struct WorkerConfig {
  std::string socket_path;
  std::string name = "fcrw";       ///< provenance stamp on failures
  std::uint64_t heartbeat_ms = 100;    ///< lease renewal cadence
  std::uint64_t io_timeout_ms = 2000;  ///< wait for grant/ack before retrying
  std::uint64_t connect_retry_ms = 100;
  std::size_t connect_attempts = 50;   ///< dials before giving up entirely
  std::size_t max_resends = 8;         ///< result re-sends before giving up
  /// Test hook: abandon the process's work (no result, no goodbye) after
  /// this many completed trial entries, simulating a mid-shard crash.
  /// 0 = never.
  std::size_t die_after_entries = 0;
  std::size_t max_leases = 0;  ///< exit after N leases (0 = until Shutdown)
};

struct WorkerStats {
  std::size_t leases = 0;      ///< shard results acked
  std::size_t trials = 0;      ///< trial entries computed
  std::size_t resends = 0;     ///< result frames re-sent awaiting ack
  std::size_t reconnects = 0;  ///< re-dials after a lost connection
  std::size_t no_work_waits = 0;      ///< NoWork replies waited out
  std::uint64_t no_work_wait_ms = 0;  ///< time spent in those waits
};

/// Runs the worker loop against `config.socket_path`. Returns true on a
/// clean exit (coordinator Shutdown or max_leases reached), false when
/// the coordinator is unreachable past the connect budget or the
/// die_after_entries hook fired. Throws fcr::Error(kConfig) on
/// coordinator/worker version skew (spec hash mismatch).
bool run_worker(const WorkerConfig& config, WorkerStats* stats = nullptr);

}  // namespace fcr::fabric
