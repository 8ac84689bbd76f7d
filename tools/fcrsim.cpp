// fcrsim — the everything CLI: compose any deployment x channel x algorithm
// from the library and run a trial batch, with optional CSV outputs for
// downstream plotting.
//
// The composition flags are shared with fcrd through fabric::add_spec_flags
// (src/fabric/spec.hpp), and the factories are built by the same
// fabric::make_factories the worker fleet uses — one construction path, so
// a local run, a campaign, and a fabric-sharded campaign of the same spec
// are bit-identical by construction.
//
// Examples:
//   fcrsim --deployment uniform --n 256 --algorithm fading --trials 100
//   fcrsim --deployment chain --n 128 --span 1048576 --algorithm fading
//   fcrsim --deployment clusters --n 300 --algorithm decay --channel radio
//   fcrsim --deployment-file nodes.csv --algorithm fading --trace trace.csv
//   fcrsim --trials 60 --fabric-socket /tmp/fcr.sock   (+ fcrw workers)
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>

#include "core/deployment_stats.hpp"
#include "deploy/generators.hpp"
#include "deploy/io.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "sinr/validate.hpp"
#include "stats/bootstrap.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/table.hpp"

namespace fcr {
namespace {

int run(int argc, const char* const* argv) {
  CliParser cli(
      "fcrsim: run any (deployment, channel, algorithm) combination from "
      "the fadingcr library and report completion statistics.");
  fabric::add_spec_flags(cli);
  cli.add_flag("deployment-file", "", "CSV file (x,y header) overriding --deployment");
  cli.add_flag("csv", "", "write per-trial results to this CSV file");
  cli.add_flag("threads", "1",
               "campaign worker threads (0 = hardware concurrency; any "
               "value but 1 selects campaign mode)");
  cli.add_flag("checkpoint", "",
               "campaign mode: snapshot completed trials to this file "
               "(write-temp+rename, CRC-protected)");
  cli.add_flag("checkpoint-every", "16",
               "snapshot after this many new completions");
  cli.add_flag("resume", "false",
               "load --checkpoint before running; invalid or mismatched "
               "checkpoints fall back to a fresh campaign");
  cli.add_flag("fabric-socket", "",
               "campaign mode: shard trials over fcrw workers connected to "
               "this UNIX socket (degrades to local execution when no "
               "worker shows up)");
  cli.add_flag("fabric-lease-trials", "8",
               "fabric mode: trials per worker lease");
  cli.add_flag("trace", "", "write the first trial's event trace to this CSV");
  cli.add_flag("deployment-out", "",
               "write the traced trial's deployment to this CSV "
               "(for fcrtrace --audit)");
  cli.add_flag("validate", "false",
               "audit the instance against the paper's model assumptions");
  cli.add_flag("describe", "false",
               "print the instance's structural statistics (link classes, "
               "nearest-neighbor distribution, density)");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n(use --help for the flag list)\n";
    return 1;
  }
  if (cli.help_requested()) {
    cli.print_help(std::cout);
    return 0;
  }

  // Flag-combination sanity before any heavy lifting, so misuse dies with
  // a one-line config diagnosis instead of a stack of engine errors.
  if (cli.get_bool("resume") && cli.get_string("checkpoint").empty()) {
    throw Error(ErrorCategory::kConfig, "--resume requires --checkpoint <file>");
  }
  if (cli.get_int("retries") < 1) {
    throw Error(ErrorCategory::kConfig, "--retries must be at least 1");
  }
  if (cli.get_int("threads") < 0) {
    throw Error(ErrorCategory::kConfig, "--threads must be non-negative");
  }
  const std::string fabric_socket = cli.get_string("fabric-socket");
  const std::string dep_file = cli.get_string("deployment-file");
  if (!fabric_socket.empty() && !dep_file.empty()) {
    throw Error(ErrorCategory::kConfig,
                "--fabric-socket cannot ship --deployment-file deployments "
                "to workers (the spec must be generative)");
  }

  const fabric::SweepSpec spec = fabric::spec_from_cli(cli);
  const fabric::Factories factories = fabric::make_factories(spec);
  DeploymentFactory deploy = factories.deploy;
  // A file deployment is part of the instance, so its bytes key campaign
  // checkpoints alongside the spec.
  std::string dep_file_identity;
  if (!dep_file.empty()) {
    std::ifstream in(dep_file, std::ios::binary);
    if (!in.good()) {
      throw Error(ErrorCategory::kIo,
                  "cannot open deployment file '" + dep_file + "'");
    }
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::istringstream text(bytes);
    deploy = fixed_deployment(read_deployment_csv(text));
    dep_file_identity = ";deployment_file_crc32=" +
                        std::to_string(crc32(bytes.data(), bytes.size()));
  }
  const ChannelFactory& channel = factories.channel;
  const AlgorithmFactory& algorithm = factories.algorithm;

  TrialConfig config;
  config.trials = spec.trials;
  config.seed = spec.seed;
  config.engine.max_rounds = spec.max_rounds;

  // Describe trial 0's instance: the deployment the first trial, --trace
  // and --deployment-out all use.
  TrialStreams trial0 = trial_streams(Rng(config.seed), 0);
  const Deployment dep0 = deploy(trial0.deploy);
  std::cout << "instance: n = " << dep0.size() << ", R = "
            << dep0.link_ratio() << " (" << dep0.link_class_count()
            << " link classes), channel = " << channel(dep0)->name()
            << ", algorithm = " << algorithm(dep0)->name() << '\n';
  if (cli.get_bool("describe")) {
    std::cout << '\n' << to_string(describe(dep0));
  }
  if (cli.get_bool("validate")) {
    const SinrParams audit_params = SinrParams::for_longest_link(
        spec.alpha, spec.beta, spec.noise,
        dep0.size() >= 2 ? dep0.max_link() : 1.0);
    std::cout << "\nmodel audit (paper Section 2 assumptions):\n"
              << validate_model(dep0, audit_params).to_string() << '\n';
  }

  // Campaign mode (per-trial isolation, retry, checkpoint/resume, fabric
  // sharding) kicks in whenever one of its knobs is used; the plain batch
  // runner otherwise.
  const bool campaign_mode = !cli.get_string("checkpoint").empty() ||
                             cli.get_bool("resume") ||
                             cli.get_int("threads") != 1 ||
                             spec.round_budget > 0 ||
                             !fabric_socket.empty();
  TrialSetResult result;
  if (campaign_mode) {
    CampaignConfig cc = fabric::campaign_config(spec);
    cc.identity += dep_file_identity;
    cc.threads = static_cast<std::size_t>(cli.get_int("threads"));
    cc.checkpoint.path = cli.get_string("checkpoint");
    cc.checkpoint.every =
        static_cast<std::size_t>(cli.get_uint("checkpoint-every"));
    cc.checkpoint.resume = cli.get_bool("resume");
    CampaignRunner runner(deploy, channel, algorithm, cc);
    CampaignResult campaign;
    if (!fabric_socket.empty()) {
      fabric::FabricConfig fc;
      fc.socket_path = fabric_socket;
      fc.spec = spec;
      fc.lease_trials =
          static_cast<std::size_t>(cli.get_uint("fabric-lease-trials"));
      fabric::SocketBackend backend(fc);
      campaign = runner.run_with(backend);
      const auto& st = backend.stats();
      std::cout << "fabric: " << st.leases_granted << " lease(s) granted, "
                << st.results_merged << " merged, " << st.leases_expired
                << " expired, " << st.local_fallback_trials
                << " trial(s) run locally\n";
    } else {
      campaign = runner.run();
    }
    result = campaign.result;
    if (campaign.restored > 0) {
      std::cout << "resumed: " << campaign.restored
                << " trial(s) restored from " << cc.checkpoint.path << '\n';
    }
    if (!campaign.checkpoint_rejected.empty()) {
      std::cout << "checkpoint rejected (" << campaign.checkpoint_rejected
                << "); starting fresh\n";
    }
    if (campaign.checkpoints_written > 0) {
      std::cout << "checkpoints written: " << campaign.checkpoints_written
                << '\n';
    }
    if (!campaign.failures.empty() || campaign.quarantined > 0) {
      std::cout << campaign.failure_report() << '\n';
    }
  } else {
    result = run_trials(deploy, channel, algorithm, config);
  }
  const BatchSummary s = result.summary();

  TablePrinter table({"metric", "value"});
  table.row({"trials", TablePrinter::fmt(static_cast<std::uint64_t>(result.trials))});
  table.row({"solved", TablePrinter::fmt(static_cast<std::uint64_t>(result.solved))});
  table.row({"solve rate", TablePrinter::fmt(result.solve_rate(), 4)});
  if (!result.rounds.empty()) {
    table.row({"median rounds", TablePrinter::fmt(s.median, 1)});
    table.row({"mean rounds", TablePrinter::fmt(s.mean, 2)});
    table.row({"p95 rounds", TablePrinter::fmt(s.p95, 1)});
    table.row({"max rounds", TablePrinter::fmt(s.max, 0)});
    Rng boot_rng(config.seed ^ 0xB007);
    const ConfidenceInterval ci =
        bootstrap_median_ci(to_doubles(result.rounds), boot_rng);
    std::ostringstream ci_str;
    ci_str << "[" << TablePrinter::fmt(ci.lo, 1) << ", "
           << TablePrinter::fmt(ci.hi, 1) << "]";
    table.row({"median 95% CI", ci_str.str()});
  }
  table.print(std::cout);

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

  if (const std::string trace_path = cli.get_string("trace");
      !trace_path.empty()) {
    const auto ch = channel(dep0);
    const auto algo = algorithm(dep0);
    ExecutionTrace trace;
    run_execution(dep0, *algo, *ch, config.engine, trial0.run,
                  trace.observer());
    std::ofstream out(trace_path);
    FCR_ENSURE_ARG(out.good(), "cannot open trace output: " << trace_path);
    trace.write_csv(out);
    std::cout << "wrote " << trace.rounds().size() << "-round trace to "
              << trace_path << '\n';
    if (const std::string dep_path = cli.get_string("deployment-out");
        !dep_path.empty()) {
      std::ofstream dep_out(dep_path);
      FCR_ENSURE_ARG(dep_out.good(),
                     "cannot open deployment output: " << dep_path);
      write_deployment_csv(dep0, dep_out);
      std::cout << "wrote the traced deployment to " << dep_path << '\n';
    }
  }
  return 0;
}

}  // namespace
}  // namespace fcr

namespace {

const char* hint_for(fcr::ErrorCategory category) {
  switch (category) {
    case fcr::ErrorCategory::kConfig:
      return "use --help for the flag list";
    case fcr::ErrorCategory::kIo:
      return "check the path and permissions";
    case fcr::ErrorCategory::kCorrupt:
      return "delete the checkpoint file to start fresh";
    default:
      return "re-run with the same --seed to reproduce";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure exits with a one-line diagnosed error: the taxonomy
  // category (fcr::Error), plus an actionable hint.
  try {
    fcr::failpoint::arm_from_env();
    return fcr::run(argc, argv);
  } catch (const fcr::Error& e) {
    std::cerr << "fcrsim: " << e.what() << " (hint: " << hint_for(e.category())
              << ")\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "fcrsim: error[config]: " << e.what()
              << " (hint: " << hint_for(fcr::ErrorCategory::kConfig) << ")\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fcrsim: error[engine]: " << e.what() << '\n';
    return 1;
  }
}
