// E3 (Table 1): the full algorithm comparison.
//
// Every algorithm in the registry runs on its native channel (SINR for the
// paper's algorithm, radio for the oblivious baselines, radio-CD for the
// collision-detection strategy), on the same uniform deployments. Reported
// per (algorithm, n): median / p95 / q(1 - 1/n) completion rounds and the
// knowledge assumptions — the axes of the paper's related-work discussion.
#include <cmath>
#include <iostream>

#include "algorithms/registry.hpp"
#include "core/fading_cr.hpp"
#include "deploy/generators.hpp"
#include "exp_common.hpp"
#include "util/cli.hpp"

namespace fcr::bench {
namespace {

ChannelFactory native_channel(const AlgorithmSpec& spec) {
  if (spec.key == "fading" || spec.key == "no-knockout") {
    return sinr_channel_factory(3.0, 1.5, 1e-9);
  }
  return radio_channel_factory(spec.needs_collision_detection);
}

int run(int argc, const char* const* argv) {
  CliParser cli(
      "E3: all algorithms x n, native channels, uniform deployments. "
      "Knowledge column: n = needs size bound, CD = needs collision "
      "detection.");
  cli.add_flag("sizes", "64,256,1024", "n values");
  cli.add_flag("trials", "200", "trials per cell");
  add_csv_flag(cli);
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << '\n';
    return 1;
  }
  if (cli.help_requested()) {
    cli.print_help(std::cout);
    return 0;
  }

  banner("E3 / Table 1",
         "Separation table: the paper's no-knowledge algorithm vs every "
         "baseline; whp cost ranks fading ~ cd-leader ~ aloha(n) < "
         "fast-decay < decay << backoff.");

  const auto sizes = cli.get_int_list("sizes");
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));

  TablePrinter table({"algorithm", "knows", "n", "solve%", "median", "p95",
                      "q(1-1/n)", "bound"});

  double fading_whp_1024 = 0.0, decay_whp_1024 = 0.0;
  bool fading_always_solves = true;

  for (const AlgorithmSpec& spec : algorithm_catalog()) {
    for (const auto n_signed : sizes) {
      const auto n = static_cast<std::size_t>(n_signed);
      if (spec.key == "backoff" && n > 256) continue;      // Theta(n): slow
      if (spec.key == "no-knockout" && n > 64) continue;   // hopeless by design
      const double side = 2.0 * std::sqrt(static_cast<double>(n));
      const auto result = run_trials(
          [n, side](Rng& rng) {
            return uniform_square(n, side, rng).normalized();
          },
          native_channel(spec),
          [&spec](const Deployment& dep) {
            return make_algorithm(spec.key, dep.size());
          },
          trial_config(trials, n * 31 + spec.key.size(),
                       spec.key == "no-knockout" ? 20000 : 100000));

      const double whp =
          rounds_quantile(result, 1.0 - 1.0 / static_cast<double>(n));
      if (n == 1024 && spec.key == "fading") fading_whp_1024 = whp;
      if (n == 1024 && spec.key == "decay") decay_whp_1024 = whp;
      if (spec.key == "fading" && result.solved != result.trials) {
        fading_always_solves = false;
      }

      const char* knows = "-";
      if (spec.needs_size_bound) {
        knows = spec.needs_collision_detection ? "n+CD" : "n";
      } else if (spec.needs_collision_detection) {
        knows = "CD";
      }

      table.row({spec.key, knows,
                 TablePrinter::fmt(static_cast<std::uint64_t>(n)),
                 TablePrinter::fmt(100.0 * result.solve_rate(), 1),
                 TablePrinter::fmt(result.summary().median, 1),
                 TablePrinter::fmt(rounds_quantile(result, 0.95), 1),
                 std::isinf(whp) ? "inf" : TablePrinter::fmt(whp, 1),
                 spec.expected_rounds});
    }
  }
  emit(cli, table, "e3_baselines_table");

  const bool ok = fading_always_solves && fading_whp_1024 > 0.0 &&
                  fading_whp_1024 < decay_whp_1024;
  shape("E3", ok,
        "fading solves every trial and beats decay's whp quantile at "
        "n = 1024 without knowing n");
  return ok ? 0 : 2;
}

}  // namespace
}  // namespace fcr::bench

int main(int argc, char** argv) { return fcr::bench::run(argc, argv); }
