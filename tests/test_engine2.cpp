// Second-wave engine tests: degenerate deployments, SINR-channel round
// statistics, stop predicates vs solve, and deployment characterization.
#include <gtest/gtest.h>

#include "core/deployment_stats.hpp"
#include "core/fading_cr.hpp"
#include "deploy/generators.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"

namespace fcr {
namespace {

TEST(Engine2, SingleNodeDeploymentSolvesGeometrically) {
  // One node alone: solved in the first round it transmits — geometric(p).
  const Deployment dep({{0.0, 0.0}});
  const auto channel = make_radio_adapter(false);
  const FadingContentionResolution algo(0.5);
  StreamingSummary rounds;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const RunResult r =
        run_execution(dep, algo, *channel, EngineConfig{}, Rng(seed));
    ASSERT_TRUE(r.solved);
    EXPECT_EQ(r.winner, 0u);
    rounds.add(static_cast<double>(r.rounds));
  }
  EXPECT_NEAR(rounds.mean(), 2.0, 0.4);
}

TEST(Engine2, HistoryReceptionsMatchObserverOnSinr) {
  Rng rng(20);
  const Deployment dep = uniform_square(48, 14.0, rng).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo;
  EngineConfig config;
  config.record_rounds = true;
  config.stop_on_solve = false;
  config.max_rounds = 50;

  std::vector<std::size_t> observed_rx;
  const RunResult r = run_execution(
      dep, algo, *channel, config, rng.split(1), [&](const RoundView& view) {
        std::size_t rx = 0;
        for (const Feedback& f : view.listener_feedback) {
          if (f.received) ++rx;
        }
        observed_rx.push_back(rx);
      });
  ASSERT_EQ(r.history.size(), observed_rx.size());
  for (std::size_t i = 0; i < observed_rx.size(); ++i) {
    EXPECT_EQ(r.history[i].receptions, observed_rx[i]) << i;
    EXPECT_EQ(r.history[i].round, i + 1);
  }
}

TEST(Engine2, StopWhenBeforeSolveReportsUnsolved) {
  Rng rng(21);
  const Deployment dep = uniform_square(32, 12.0, rng).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  // Never transmits: stop_when is the only way out.
  const FadingContentionResolution algo(1e-9);
  EngineConfig config;
  config.max_rounds = 1000;
  config.stop_when = [](const RoundView& v) { return v.round >= 5; };
  const RunResult r = run_execution(dep, algo, *channel, config, rng.split(1));
  EXPECT_FALSE(r.solved);
  EXPECT_EQ(r.rounds, 5u);
}

TEST(Engine2, StopOnSolveBeatsStopWhen) {
  // With an effectively-never stop predicate, solve detection still ends
  // the run at the first solo round.
  Rng rng(22);
  const Deployment dep = uniform_square(16, 8.0, rng).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo(0.5);
  EngineConfig config;
  config.max_rounds = 10000;
  config.stop_when = [](const RoundView& v) { return v.round >= 10000; };
  const RunResult r = run_execution(dep, algo, *channel, config, rng.split(2));
  EXPECT_TRUE(r.solved);
  EXPECT_LT(r.rounds, 10000u);
}

// ------------------------------------------------------------- describe

TEST(DeploymentStats, HandComputedInstance) {
  // Unit pair plus a far pair at distance 4: classes 0 and 2.
  const Deployment dep({{0, 0}, {1, 0}, {100, 0}, {104, 0}});
  const DeploymentStats s = describe(dep);
  EXPECT_EQ(s.nodes, 4u);
  EXPECT_DOUBLE_EQ(s.shortest_link, 1.0);
  EXPECT_NEAR(s.link_ratio, 104.0, 1e-9);
  EXPECT_EQ(s.nonempty_link_classes, 2u);
  ASSERT_GE(s.class_sizes.size(), 3u);
  EXPECT_EQ(s.class_sizes[0], 2u);
  EXPECT_EQ(s.class_sizes[2], 2u);
  EXPECT_DOUBLE_EQ(s.nn_max, 4.0);
  EXPECT_DOUBLE_EQ(s.nn_mean, 2.5);
}

TEST(DeploymentStats, SingleNode) {
  const Deployment dep({{5, 5}});
  const DeploymentStats s = describe(dep);
  EXPECT_EQ(s.nodes, 1u);
  EXPECT_EQ(s.nonempty_link_classes, 0u);
  EXPECT_DOUBLE_EQ(s.bbox_density, 0.0);
}

TEST(DeploymentStats, RenderingMentionsEveryNonEmptyClass) {
  Rng rng(23);
  const Deployment dep = uniform_square(64, 16.0, rng).normalized();
  const DeploymentStats s = describe(dep);
  const std::string text = to_string(s);
  EXPECT_NE(text.find("nodes: 64"), std::string::npos);
  EXPECT_NE(text.find("link classes:"), std::string::npos);
  for (std::size_t i = 0; i < s.class_sizes.size(); ++i) {
    if (s.class_sizes[i] > 0) {
      const std::string label =
          std::string("d").append(std::to_string(i)).append("=");
      EXPECT_NE(text.find(label), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace fcr
