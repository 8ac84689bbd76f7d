// fcrw — a campaign fabric worker.
//
// Connects to a fcrd (or fcrsim --fabric-socket) coordinator, requests
// leases, computes them through the same run_shard every backend uses, and
// reports results until the coordinator says Shutdown. Safe to kill at any
// moment: the lease machinery recomputes whatever this process was holding,
// bit-identically.
//
//   fcrw --socket /tmp/fcr.sock --name fcrw#1
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "fabric/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fcr {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli(
      "fcrw: campaign fabric worker — computes trial leases for a fcrd "
      "coordinator.");
  cli.add_flag("socket", "", "coordinator's UNIX socket path (required)");
  cli.add_flag("name", "", "worker identity for provenance (default fcrw#<pid>)");
  cli.add_flag("heartbeat-ms", "100", "lease renewal cadence");
  cli.add_flag("io-timeout-ms", "2000", "wait for grant/ack before retrying");
  cli.add_flag("connect-retry-ms", "100", "delay between connection attempts");
  cli.add_flag("connect-attempts", "50", "dials before giving up");
  cli.add_flag("max-resends", "8", "result re-sends before moving on");
  cli.add_flag("die-after-entries", "0",
               "test hook: crash (abandon work, exit nonzero) after this "
               "many completed trials (0 = never)");
  cli.add_flag("max-leases", "0", "exit after N leases (0 = until Shutdown)");
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

  fabric::WorkerConfig wc;
  wc.socket_path = cli.get_string("socket");
  wc.name = cli.get_string("name");
  if (wc.name.empty()) {
    std::ostringstream name;
    name << "fcrw#" << ::getpid();
    wc.name = name.str();
  }
  wc.heartbeat_ms = cli.get_uint("heartbeat-ms");
  wc.io_timeout_ms = cli.get_uint("io-timeout-ms");
  wc.connect_retry_ms = cli.get_uint("connect-retry-ms");
  wc.connect_attempts =
      static_cast<std::size_t>(cli.get_uint("connect-attempts"));
  wc.max_resends = static_cast<std::size_t>(cli.get_uint("max-resends"));
  wc.die_after_entries =
      static_cast<std::size_t>(cli.get_uint("die-after-entries"));
  wc.max_leases = static_cast<std::size_t>(cli.get_uint("max-leases"));

  fabric::WorkerStats stats;
  const bool clean = fabric::run_worker(wc, &stats);
  std::cout << wc.name << ": " << stats.leases << " lease(s), "
            << stats.trials << " trial(s), " << stats.resends
            << " resend(s), " << stats.reconnects << " reconnect(s), "
            << stats.no_work_waits << " NoWork wait(s) ("
            << stats.no_work_wait_ms << " ms)"
            << (clean ? "" : " [abandoned]") << '\n';
  return clean ? 0 : 2;
}

}  // namespace
}  // namespace fcr

int main(int argc, char** argv) {
  try {
    fcr::failpoint::arm_from_env();
    return fcr::run(argc, argv);
  } catch (const fcr::Error& e) {
    std::cerr << "fcrw: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fcrw: error[engine]: " << e.what() << '\n';
    return 1;
  }
}
