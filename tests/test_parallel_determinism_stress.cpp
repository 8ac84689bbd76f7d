// Determinism stress test for run_trials_parallel: the repository's headline
// claim is that the parallel runner is BIT-IDENTICAL to the serial reference
// for every thread count and seed. This binary is also the designated
// ThreadSanitizer workload (the tsan preset / CI job runs it), so it
// deliberately oversubscribes threads and hammers the shared factories from
// many workers at once.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "fadingcr.hpp"
#include "stateful_channels.hpp"

namespace fcr {
namespace {

TrialConfig stress_config(std::size_t trials, std::uint64_t seed) {
  TrialConfig c;
  c.trials = trials;
  c.seed = seed;
  c.engine.max_rounds = 20000;
  return c;
}

DeploymentFactory uniform_factory(std::size_t n) {
  return [n](Rng& rng) {
    return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
        .normalized();
  };
}

AlgorithmFactory fading_factory() {
  return [](const Deployment&) {
    return std::make_unique<FadingContentionResolution>();
  };
}

/// Thread counts from degenerate through oversubscribed: 1, 2, the hardware
/// parallelism, and twice that (so workers genuinely contend for cores).
std::vector<std::size_t> stress_thread_counts() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return {1, 2, hw, 2 * hw};
}

TEST(ParallelDeterminismStress, BitIdenticalAcrossThreadCountsAndSeeds) {
  for (const std::uint64_t seed : {1ULL, 20160725ULL, 0xFADEDC0DEULL}) {
    const TrialConfig config = stress_config(32, seed);
    const TrialSetResult serial =
        run_trials(uniform_factory(32), sinr_channel_factory(3.0, 1.5, 1e-9),
                   fading_factory(), config);
    for (const std::size_t threads : stress_thread_counts()) {
      const TrialSetResult parallel = run_trials_parallel(
          uniform_factory(32), sinr_channel_factory(3.0, 1.5, 1e-9),
          fading_factory(), config, threads);
      // Bit-identical: same trial count, same solves, and the exact same
      // per-trial completion rounds in the exact same order.
      EXPECT_EQ(parallel.trials, serial.trials)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(parallel.solved, serial.solved)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(parallel.rounds, serial.rounds)
          << "seed=" << seed << " threads=" << threads;
    }
  }

  // Stateful channels on a fixed deployment.
  const DeploymentFactory fixed = stateful_channels::fixed_uniform(32);
  const std::vector<ChannelFactory> channels = stateful_channels::factories();
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const TrialConfig config = stress_config(24, 20160725);
    const TrialSetResult serial =
        run_trials(fixed, channels[c], fading_factory(), config);
    for (const std::size_t threads : stress_thread_counts()) {
      const TrialSetResult parallel = run_trials_parallel(
          fixed, channels[c], fading_factory(), config, threads);
      EXPECT_EQ(parallel.solved, serial.solved)
          << "channel=" << c << " threads=" << threads;
      EXPECT_EQ(parallel.rounds, serial.rounds)
          << "channel=" << c << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismStress, SharedFactoriesHammeredByWorkers) {
  // The factories are shared state called concurrently from every worker;
  // count invocations to prove each trial builds exactly one deployment,
  // channel, and algorithm even under heavy oversubscription. TSan watches
  // the factory call path for races.
  const std::size_t kTrials = 64;
  std::atomic<std::size_t> deployments{0};
  std::atomic<std::size_t> channels{0};
  std::atomic<std::size_t> algorithms{0};

  const DeploymentFactory counted_deployment =
      [&deployments, inner = uniform_factory(24)](Rng& rng) {
        deployments.fetch_add(1, std::memory_order_relaxed);
        return inner(rng);
      };
  const ChannelFactory counted_channel =
      [&channels, inner = sinr_channel_factory(3.0, 1.5, 1e-9)](
          const Deployment& dep) {
        channels.fetch_add(1, std::memory_order_relaxed);
        return inner(dep);
      };
  const AlgorithmFactory counted_algorithm =
      [&algorithms](const Deployment&) {
        algorithms.fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<FadingContentionResolution>();
      };

  const TrialConfig config = stress_config(kTrials, 7);
  const std::size_t threads =
      2 * std::max(1u, std::thread::hardware_concurrency());
  const TrialSetResult parallel = run_trials_parallel(
      counted_deployment, counted_channel, counted_algorithm, config, threads);

  EXPECT_EQ(deployments.load(), kTrials);
  EXPECT_EQ(channels.load(), kTrials);
  EXPECT_EQ(algorithms.load(), kTrials);

  const TrialSetResult serial =
      run_trials(uniform_factory(24), sinr_channel_factory(3.0, 1.5, 1e-9),
                 [](const Deployment&) {
                   return std::make_unique<FadingContentionResolution>();
                 },
                 config);
  EXPECT_EQ(parallel.solved, serial.solved);
  EXPECT_EQ(parallel.rounds, serial.rounds);
}

TEST(ParallelDeterminismStress, ConcurrentBatchesDoNotInterfere) {
  // Two whole parallel batches racing each other (as a sweep driver would
  // run them) must each still reproduce the serial reference bit-for-bit.
  const TrialConfig config_a = stress_config(24, 11);
  const TrialConfig config_b = stress_config(24, 13);
  const TrialSetResult serial_a =
      run_trials(uniform_factory(24), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), config_a);
  const TrialSetResult serial_b =
      run_trials(uniform_factory(24), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), config_b);

  TrialSetResult parallel_a;
  TrialSetResult parallel_b;
  std::thread racer_a([&] {
    parallel_a = run_trials_parallel(uniform_factory(24),
                                     sinr_channel_factory(3.0, 1.5, 1e-9),
                                     fading_factory(), config_a, 4);
  });
  std::thread racer_b([&] {
    parallel_b = run_trials_parallel(uniform_factory(24),
                                     sinr_channel_factory(3.0, 1.5, 1e-9),
                                     fading_factory(), config_b, 4);
  });
  racer_a.join();
  racer_b.join();

  EXPECT_EQ(parallel_a.rounds, serial_a.rounds);
  EXPECT_EQ(parallel_a.solved, serial_a.solved);
  EXPECT_EQ(parallel_b.rounds, serial_b.rounds);
  EXPECT_EQ(parallel_b.solved, serial_b.solved);
}

}  // namespace
}  // namespace fcr
