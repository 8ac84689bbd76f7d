// Reference/fast bit-identity harness.
//
// The fast path — the columnar round loop driving an algorithm's decide
// kernel over the lane-blocked streams — is only allowed to exist because
// it is OBSERVATIONALLY IDENTICAL to the per-node virtual reference: same
// rng.split(id) lineage, same decision stream, same RunResult including the
// recorded per-round history. This suite drives every registry algorithm
// across channel models, deployments and seeds on kReference, kFast and
// kAuto, and compares everything the engine can emit:
//   * observed runs (history recorded) agree round for round;
//   * bare runs agree on the outcome. They take the bitmask round loop on
//     channels that resolve listeners independently, and the materializing
//     loop over every listener on the stateful channels (Rayleigh fading,
//     lossy decoding), whose adapters draw from their own Rng per round;
//   * kAuto agrees with both, on either side of kFastCutover.
// Deployments: three shapes at n = 48, plus uniform squares at n = 5, 7, 8,
// 65 and 127 — sizes that leave phantom tail lanes (n not a multiple of 8)
// and ragged bitmask words, and straddle the cutover. cd-leader has no
// decide kernel: kAuto routes it to the reference and kFast throws.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "deploy/generators.hpp"
#include "ext/faults.hpp"
#include "ext/rayleigh.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/workspace.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

struct ChannelCase {
  const char* name;
  bool collision_detection;  // meaningful for radio channels only
  /// Builds a fresh adapter per call. The stateful adapters are seeded
  /// identically every time, so each run sees the same channel draws.
  ChannelFactory factory;
};

std::vector<ChannelCase> channel_cases() {
  const ChannelFactory sinr = sinr_channel_factory(3.0, 1.5, 1e-9);
  std::vector<ChannelCase> cases;
  cases.push_back({"sinr", false, sinr});
  cases.push_back({"radio", false, radio_channel_factory(false)});
  cases.push_back({"radio-cd", true, radio_channel_factory(true)});
  cases.push_back(
      {"rayleigh", false,
       [](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
         return std::make_unique<RayleighSinrAdapter>(
             SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link()),
             1.0, Rng(61));
       }});
  cases.push_back(
      {"lossy-sinr", false,
       [sinr](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
         return std::make_unique<LossyChannelAdapter>(sinr(dep), 0.3,
                                                      Rng(62));
       }});
  return cases;
}

struct DeploymentCase {
  std::string name;
  Deployment dep;
};

std::vector<DeploymentCase> deployment_cases() {
  std::vector<DeploymentCase> cases;
  Rng square_rng(777 + 's');
  cases.push_back({"square", uniform_square(48, 14.0, square_rng).normalized()});
  Rng chain_rng(777 + 'c');
  cases.push_back(
      {"chain", exponential_chain(48, 48.0 * 16.0, chain_rng).normalized()});
  Rng multi_rng(777 + 'm');
  cases.push_back({"multi_scale", multi_scale(4, 12, multi_rng).normalized()});
  const std::size_t sizes[] = {5, 7, 8, 65, 127};
  for (const std::size_t n : sizes) {
    Rng rng(900 + n);
    cases.push_back(
        {std::string("n").append(std::to_string(n)),
         uniform_square(n, 1.5 * static_cast<double>(n) / 3.0, rng)
             .normalized()});
  }
  return cases;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.solved, b.solved) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    const RoundStats& x = a.history[r];
    const RoundStats& y = b.history[r];
    EXPECT_EQ(x.round, y.round) << label << " round " << r;
    EXPECT_EQ(x.transmitters, y.transmitters) << label << " round " << r;
    EXPECT_EQ(x.receptions, y.receptions) << label << " round " << r;
    EXPECT_EQ(x.contending, y.contending) << label << " round " << r;
  }
}

TEST(ColumnarIdentity, EveryRegistryAlgorithmMatchesTheVirtualOracle) {
  const auto channels = channel_cases();
  const auto deployments = deployment_cases();
  for (const AlgorithmSpec& spec : algorithm_catalog()) {
    for (const ChannelCase& chan : channels) {
      if (spec.needs_collision_detection && !chan.collision_detection) {
        continue;  // cd-leader is undefined without collision detection
      }
      for (const DeploymentCase& dc : deployments) {
        const auto algorithm = make_algorithm(spec.key, dc.dep.size());
        const bool has_kernel = algorithm->columnar() != nullptr;
        ExecutionWorkspace ref_ws;
        ExecutionWorkspace fast_ws;
        ExecutionWorkspace auto_ws;
        auto run = [&](ExecutionWorkspace& ws, ExecutionPath path,
                       bool observed, std::uint64_t seed) {
          EngineConfig config;
          config.max_rounds = 128;
          config.record_rounds = observed;
          config.path = path;
          return ws.run(dc.dep, *algorithm, *chan.factory(dc.dep), config,
                        Rng(seed));
        };
        if (!has_kernel) {
          EXPECT_THROW((void)run(fast_ws, ExecutionPath::kFast, false, 1),
                       std::invalid_argument)
              << spec.key;
        }
        for (std::uint64_t seed = 1; seed <= 32; ++seed) {
          const std::string label = std::string(spec.key) + "/" + chan.name +
                                    "/" + dc.name + "/seed" +
                                    std::to_string(seed);
          // The reference's observed run fixes the history observed runs
          // must reproduce and the outcome bare runs must reach: observing
          // a run never changes its outcome.
          const RunResult observed =
              run(ref_ws, ExecutionPath::kReference, true, seed);
          RunResult outcome = observed;
          outcome.history.clear();
          for (const bool watch : {true, false}) {
            const RunResult& want = watch ? observed : outcome;
            const std::string mode = watch ? "/observed" : "/bare";
            if (has_kernel) {
              expect_identical(want,
                               run(fast_ws, ExecutionPath::kFast, watch, seed),
                               label + mode + "/fast");
            }
            expect_identical(want,
                             run(auto_ws, ExecutionPath::kAuto, watch, seed),
                             label + mode + "/auto");
          }
        }
      }
    }
  }
}

TEST(ColumnarIdentity, ObserverForcesTheExactListenerSet) {
  // With an observer attached the engine must resolve feedback for EVERY
  // non-transmitting node (the observer may inspect listener_feedback), so
  // listeners.size() + transmitters.size() == n each round on both paths.
  Rng rng(4242);
  const Deployment dep = uniform_square(64, 16.0, rng).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const auto algorithm = make_algorithm("fading", dep.size());
  for (const ExecutionPath path :
       {ExecutionPath::kReference, ExecutionPath::kFast}) {
    EngineConfig config;
    config.max_rounds = 256;
    config.path = path;
    ExecutionWorkspace ws;
    std::size_t rounds_seen = 0;
    ws.run(dep, *algorithm, *channel, config, Rng(5),
           [&](const RoundView& view) {
             ++rounds_seen;
             EXPECT_EQ(view.transmitters.size() + view.listeners.size(),
                       view.size());
           });
    EXPECT_GT(rounds_seen, 0u);
  }
}

TEST(ColumnarIdentity, ParallelRunnerAgreesAcrossPathsAndThreadCounts) {
  // The trial runner must be path-invariant end to end: serial reference,
  // serial fast, and parallel fast all produce the same rounds vector
  // (run_trials_parallel already guarantees thread-count invariance; this
  // pins path invariance on top).
  const auto make_deployment = [](Rng& rng) {
    return uniform_square(48, 14.0, rng).normalized();
  };
  const auto make_channel = sinr_channel_factory(3.0, 1.5, 1e-9);
  const AlgorithmFactory algo_factory = [](const Deployment& dep) {
    return make_algorithm("fading", dep.size());
  };
  auto config_for = [](ExecutionPath path) {
    TrialConfig c;
    c.trials = 48;
    c.engine.max_rounds = 20000;
    c.engine.path = path;
    return c;
  };
  const TrialSetResult serial_reference =
      run_trials(make_deployment, make_channel, algo_factory,
                 config_for(ExecutionPath::kReference));
  const TrialSetResult serial_fast =
      run_trials(make_deployment, make_channel, algo_factory,
                 config_for(ExecutionPath::kFast));
  const TrialSetResult parallel_fast =
      run_trials_parallel(make_deployment, make_channel, algo_factory,
                          config_for(ExecutionPath::kFast), 4);
  EXPECT_EQ(serial_reference.solved, serial_reference.trials);
  EXPECT_EQ(serial_reference.rounds, serial_fast.rounds);
  EXPECT_EQ(serial_reference.rounds, parallel_fast.rounds);
  EXPECT_EQ(serial_fast.solved, parallel_fast.solved);
}

}  // namespace
}  // namespace fcr
