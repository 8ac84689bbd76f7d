// fcrd — the campaign fabric coordinator.
//
// Runs one campaign (the same SweepSpec flags as fcrsim) sharded over fcrw
// worker processes connected to --socket. Leases, heartbeats, strikes,
// quarantine, and the local-fallback degradation ladder live in
// fabric::SocketBackend (src/fabric/coordinator.hpp); this binary is just
// flags + the campaign report + per-trial CSV output.
//
//   fcrd --socket /tmp/fcr.sock --n 64 --trials 100 --csv out.csv &
//   fcrw --socket /tmp/fcr.sock &   # as many as you like
//
// Transport fault injection: set FCR_FAILPOINT_SPEC (e.g.
// "fabric/send=drop:hash=7") in either process's environment; the
// campaign result must not change (docs/ROBUSTNESS.md §6).
#include <iostream>

#include "fabric/coordinator.hpp"
#include "fabric/spec.hpp"
#include "sim/campaign.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

#include <fstream>

namespace fcr {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli(
      "fcrd: coordinate a campaign over fcrw worker processes (lease-based "
      "sharding with heartbeats, retries, quarantine, and local fallback).");
  fabric::add_spec_flags(cli);
  cli.add_flag("socket", "", "UNIX socket path workers connect to (required)");
  cli.add_flag("lease-trials", "8", "trials per worker lease");
  cli.add_flag("lease-timeout-ms", "1000",
               "revoke a lease after this long without a heartbeat");
  cli.add_flag("grace-ms", "2000",
               "wait this long for a first worker before degrading to "
               "local execution");
  cli.add_flag("max-strikes", "3",
               "lease revocations before a worker is quarantined");
  cli.add_flag("backoff-base-ms", "50", "worker retry backoff base");
  cli.add_flag("backoff-cap-ms", "2000", "worker retry backoff cap");
  cli.add_flag("jitter-seed", "99400619",
               "seed for deterministic backoff jitter");
  cli.add_flag("local-fallback", "true",
               "finish leftover shards in-process when no worker is "
               "reachable (false: fail the campaign instead)");
  cli.add_flag("checkpoint", "",
               "snapshot completed trials to this file (same format and "
               "config-hash key as fcrsim)");
  cli.add_flag("checkpoint-every", "16",
               "snapshot after this many new completions");
  cli.add_flag("resume", "false", "load --checkpoint before running");
  cli.add_flag("csv", "", "write per-trial results to this CSV file");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n(use --help for the flag list)\n";
    return 1;
  }
  if (cli.help_requested()) {
    cli.print_help(std::cout);
    return 0;
  }
  if (cli.get_string("socket").empty()) {
    throw Error(ErrorCategory::kConfig, "--socket is required");
  }
  if (cli.get_bool("resume") && cli.get_string("checkpoint").empty()) {
    throw Error(ErrorCategory::kConfig, "--resume requires --checkpoint <file>");
  }

  fabric::FabricConfig fc;
  fc.socket_path = cli.get_string("socket");
  fc.spec = fabric::spec_from_cli(cli);
  fc.lease_trials = static_cast<std::size_t>(cli.get_uint("lease-trials"));
  fc.lease_timeout_ms = cli.get_uint("lease-timeout-ms");
  fc.worker_grace_ms = cli.get_uint("grace-ms");
  fc.max_worker_strikes = static_cast<std::size_t>(cli.get_uint("max-strikes"));
  fc.backoff_base_ms = cli.get_uint("backoff-base-ms");
  fc.backoff_cap_ms = cli.get_uint("backoff-cap-ms");
  fc.jitter_seed = cli.get_uint("jitter-seed");
  fc.allow_local_fallback = cli.get_bool("local-fallback");

  CampaignConfig cc = fabric::campaign_config(fc.spec);
  cc.checkpoint.path = cli.get_string("checkpoint");
  cc.checkpoint.every =
      static_cast<std::size_t>(cli.get_uint("checkpoint-every"));
  cc.checkpoint.resume = cli.get_bool("resume");

  const fabric::Factories factories = fabric::make_factories(fc.spec);
  CampaignRunner runner(factories.deploy, factories.channel,
                        factories.algorithm, cc);
  fabric::SocketBackend backend(fc);
  const CampaignResult campaign = runner.run_with(backend);

  const auto& st = backend.stats();
  std::cout << "fabric: " << st.leases_granted << " lease(s) granted, "
            << st.results_merged << " merged, " << st.leases_expired
            << " expired, " << st.duplicate_results << " duplicate(s), "
            << st.corrupt_results << " corrupt, " << st.worker_strikes
            << " strike(s), " << st.workers_quarantined << " quarantined, "
            << st.local_fallback_trials << " trial(s) run locally\n";
  if (campaign.restored > 0) {
    std::cout << "resumed: " << campaign.restored << " trial(s) restored\n";
  }
  if (!campaign.checkpoint_rejected.empty()) {
    std::cout << "checkpoint rejected (" << campaign.checkpoint_rejected
              << "); starting fresh\n";
  }
  if (!campaign.failures.empty() || campaign.quarantined > 0) {
    std::cout << campaign.failure_report() << '\n';
  }
  const TrialSetResult& result = campaign.result;
  std::cout << "trials: " << result.trials << ", solved: " << result.solved
            << ", solve rate: " << result.solve_rate() << '\n';

  if (const std::string csv_path = cli.get_string("csv"); !csv_path.empty()) {
    std::ofstream out(csv_path);
    FCR_ENSURE_ARG(out.good(), "cannot open CSV output: " << csv_path);
    CsvWriter csv(out, {"trial", "rounds"});
    for (std::size_t t = 0; t < result.rounds.size(); ++t) {
      csv.row({CsvWriter::num(static_cast<std::uint64_t>(t)),
               CsvWriter::num(result.rounds[t])});
    }
    std::cout << "wrote " << result.rounds.size() << " rows to " << csv_path
              << '\n';
  }
  return 0;
}

}  // namespace
}  // namespace fcr

int main(int argc, char** argv) {
  try {
    fcr::failpoint::arm_from_env();
    return fcr::run(argc, argv);
  } catch (const fcr::Error& e) {
    std::cerr << "fcrd: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fcrd: error[engine]: " << e.what() << '\n';
    return 1;
  }
}
