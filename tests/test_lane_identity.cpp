// Lane primitive and dispatch harness for the lane-blocked streams that
// back every decide kernel.
//
// The engine-level proof that the fast path equals the virtual reference
// lives in test_columnar_identity.cpp. This suite pins the layer below it:
//   * LaneRng primitives against per-node scalar Rng streams, including
//     masked stepping (inactive lanes hold position) and the bernoulli
//     clamp cases p <= 0 / p >= 1;
//   * both dispatch targets (AVX2 and the generic u64 fallback) produce the
//     same bits when the host supports both, primitive by primitive and
//     through a whole execution;
//   * every registry decide kernel, run on the fast path with the scalar
//     (generic) target forced and with the auto-selected target, across
//     channels, ragged deployment sizes (n not a multiple of 64 or 8) and
//     32 seeds: full per-round history equality in observed mode, and
//     outcome equality with the virtual reference in bare mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "deploy/generators.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sim/workspace.hpp"
#include "util/rng.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

// ------------------------------------------------------ LaneRng primitives

TEST(LaneRng, BernoulliAllMatchesScalarStreamsOnRaggedTail) {
  // n = 21: two full blocks plus a 5-lane tail.
  const std::size_t n = 21;
  for (const double p : {0.2, 0.5, 1e-3, 0.999}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const Rng root(seed);
      std::vector<Rng> scalar;
      for (NodeId id = 0; id < n; ++id) scalar.push_back(root.split(id));
      LaneRng lanes;
      lanes.seed(root, n);
      const std::size_t words = (n + 63) / 64;
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint64_t> dec(words, 0);
        lanes.bernoulli_all(p, dec);
        for (NodeId id = 0; id < n; ++id) {
          const bool want = scalar[id].bernoulli(p);
          const bool got = ((dec[id >> 6] >> (id & 63)) & 1ULL) != 0;
          ASSERT_EQ(want, got)
              << "p=" << p << " seed=" << seed << " round=" << round
              << " id=" << id;
        }
      }
    }
  }
}

TEST(LaneRng, BernoulliClampsDrawNothingLikeScalar) {
  const std::size_t n = 13;
  const Rng root(99);
  std::vector<Rng> scalar;
  for (NodeId id = 0; id < n; ++id) scalar.push_back(root.split(id));
  LaneRng lanes;
  lanes.seed(root, n);
  std::vector<std::uint64_t> dec(1, 0);
  lanes.bernoulli_all(0.0, dec);   // p <= 0: no draw, no bit
  EXPECT_EQ(dec[0], 0u);
  lanes.bernoulli_all(1.0, dec);   // p >= 1: no draw, every bit
  EXPECT_EQ(dec[0], (std::uint64_t{1} << n) - 1);
  dec[0] = 0;
  // The streams must not have advanced: the next real draw still matches.
  lanes.bernoulli_all(0.5, dec);
  for (NodeId id = 0; id < n; ++id) {
    scalar[id].bernoulli(0.0);
    scalar[id].bernoulli(1.0);
    const bool want = scalar[id].bernoulli(0.5);
    EXPECT_EQ(want, ((dec[0] >> id) & 1ULL) != 0) << "id=" << id;
  }
}

TEST(LaneRng, BernoulliActiveStepsOnlyActiveLanes) {
  const std::size_t n = 70;  // one full word + 6-bit tail, ragged 8-lane tail
  const Rng root(7);
  std::vector<Rng> scalar;
  for (NodeId id = 0; id < n; ++id) scalar.push_back(root.split(id));
  LaneRng lanes;
  lanes.seed(root, n);

  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> active(words, ~std::uint64_t{0});
  active.back() = (std::uint64_t{1} << (n & 63)) - 1;
  std::vector<double> probability(LaneRng::padded_count(n), 0.2);

  Rng knockout_rng(555);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::uint64_t> dec(words, 0);
    lanes.bernoulli_active(active, probability.data(), dec);
    for (NodeId id = 0; id < n; ++id) {
      const bool is_active = ((active[id >> 6] >> (id & 63)) & 1ULL) != 0;
      const bool want = is_active && scalar[id].bernoulli(probability[id]);
      const bool got = ((dec[id >> 6] >> (id & 63)) & 1ULL) != 0;
      ASSERT_EQ(want, got) << "round=" << round << " id=" << id;
    }
    // Knock out a few random nodes between rounds: inactive lanes must hold
    // their stream position from now on.
    for (int k = 0; k < 3; ++k) {
      const auto id = static_cast<NodeId>(knockout_rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      active[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
    }
  }
}

TEST(LaneRng, UniformOffsetsPow2MatchesScalarUniformInt) {
  const std::size_t n = 19;
  const Rng root(31);
  std::vector<Rng> scalar;
  for (NodeId id = 0; id < n; ++id) scalar.push_back(root.split(id));
  LaneRng lanes;
  lanes.seed(root, n);
  std::vector<std::uint64_t> out(LaneRng::padded_count(n), 0);
  for (const std::uint64_t window : {1ULL, 2ULL, 8ULL, 64ULL, 4096ULL}) {
    const std::uint64_t base = window - 1;
    lanes.uniform_offsets_pow2(base, window, out.data());
    for (NodeId id = 0; id < n; ++id) {
      const std::uint64_t want = base + scalar[id].uniform_int(window);
      ASSERT_EQ(want, out[id]) << "window=" << window << " id=" << id;
    }
  }
}

TEST(LaneRng, RawAllMatchesScalarRawDraws) {
  const std::size_t n = 27;
  const Rng root(12345);
  std::vector<Rng> scalar;
  for (NodeId id = 0; id < n; ++id) scalar.push_back(root.split(id));
  LaneRng lanes;
  lanes.seed(root, n);
  for (int round = 0; round < 10; ++round) {
    const std::span<const std::uint64_t> raw = lanes.raw_all();
    ASSERT_GE(raw.size(), n);
    for (NodeId id = 0; id < n; ++id) {
      ASSERT_EQ(scalar[id](), raw[id]) << "round=" << round << " id=" << id;
    }
  }
}

TEST(LaneRng, SelectEqualMasksRaggedTail) {
  const std::size_t n = 67;  // 3-bit word tail; 3-lane block tail
  std::vector<std::uint64_t> column(LaneRng::padded_count(n), 42);
  column[3] = 7;
  column[66] = 7;
  // Phantom tail entries equal to the needle must NOT produce bits.
  for (std::size_t i = n; i < column.size(); ++i) column[i] = 7;
  std::vector<std::uint64_t> dec(2, 0);
  lane_select_equal(column.data(), 7, n, dec);
  EXPECT_EQ(dec[0], std::uint64_t{1} << 3);
  EXPECT_EQ(dec[1], std::uint64_t{1} << 2);
}

// ------------------------------------------------- both dispatch targets

bool avx2_available() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

TEST(LaneDispatch, BothTargetsProduceIdenticalBits) {
  if (!avx2_available()) {
    GTEST_SKIP() << "host has no AVX2; only the generic target can run";
  }
  const std::size_t n = 77;
  const std::size_t words = (n + 63) / 64;
  std::vector<double> probability(LaneRng::padded_count(n));
  for (std::size_t i = 0; i < probability.size(); ++i) {
    probability[i] = 0.05 + 0.9 * static_cast<double>(i) /
                                static_cast<double>(probability.size());
  }
  std::vector<std::uint64_t> active(words, ~std::uint64_t{0});
  active.back() = (std::uint64_t{1} << (n & 63)) - 1;
  active[0] &= 0xF0F0F0F0F0F0F0F0ULL;

  auto run_target = [&](LaneDispatch target) {
    force_lane_dispatch(target);
    LaneRng lanes;
    lanes.seed(Rng(2024), n);
    std::vector<std::uint64_t> transcript;
    for (int round = 0; round < 40; ++round) {
      std::vector<std::uint64_t> dec(words, 0);
      lanes.bernoulli_active(active, probability.data(), dec);
      transcript.insert(transcript.end(), dec.begin(), dec.end());
      dec.assign(words, 0);
      lanes.bernoulli_all(0.3, dec);
      transcript.insert(transcript.end(), dec.begin(), dec.end());
      const std::span<const std::uint64_t> raw = lanes.raw_all();
      transcript.insert(transcript.end(), raw.begin(), raw.end());
      std::vector<std::uint64_t> offsets(LaneRng::padded_count(n), 0);
      lanes.uniform_offsets_pow2(15, 16, offsets.data());
      transcript.insert(transcript.end(), offsets.begin(),
                        offsets.begin() + static_cast<std::ptrdiff_t>(n));
    }
    reset_lane_dispatch();
    return transcript;
  };

  const std::vector<std::uint64_t> generic = run_target(LaneDispatch::kGeneric);
  const std::vector<std::uint64_t> avx2 = run_target(LaneDispatch::kAvx2);
  EXPECT_EQ(generic, avx2);
}

// ------------------------------------------------ engine, both targets

TEST(LaneIdentity, ForcedGenericDispatchMatchesAutoOnTheEngine) {
  if (!avx2_available()) {
    GTEST_SKIP() << "host has no AVX2; auto already IS the generic target";
  }
  Rng dep_rng(41);
  const Deployment dep = uniform_square(96, 28.0, dep_rng).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const auto algorithm = make_algorithm("fading", dep.size());
  EngineConfig config;
  config.max_rounds = 512;
  config.path = ExecutionPath::kFast;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ExecutionWorkspace ws_auto;
    const RunResult auto_run =
        ws_auto.run(dep, *algorithm, *channel, config, Rng(seed));
    force_lane_dispatch(LaneDispatch::kGeneric);
    ExecutionWorkspace ws_generic;
    const RunResult generic_run =
        ws_generic.run(dep, *algorithm, *channel, config, Rng(seed));
    reset_lane_dispatch();
    EXPECT_EQ(auto_run.solved, generic_run.solved) << seed;
    EXPECT_EQ(auto_run.rounds, generic_run.rounds) << seed;
    EXPECT_EQ(auto_run.winner, generic_run.winner) << seed;
  }
}

struct ChannelCase {
  const char* name;
  ChannelFactory factory;
};

std::vector<ChannelCase> channel_cases() {
  return {
      {"sinr", sinr_channel_factory(3.0, 1.5, 1e-9)},
      {"radio", radio_channel_factory(false)},
      {"radio-cd", radio_channel_factory(true)},
  };
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.solved, b.solved) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  ASSERT_EQ(a.history.size(), b.history.size()) << label;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].round, b.history[r].round) << label << " r" << r;
    EXPECT_EQ(a.history[r].transmitters, b.history[r].transmitters)
        << label << " r" << r;
    EXPECT_EQ(a.history[r].receptions, b.history[r].receptions)
        << label << " r" << r;
    EXPECT_EQ(a.history[r].contending, b.history[r].contending)
        << label << " r" << r;
  }
}

// Runs `config` on the fast path with the scalar (generic) lane target
// forced, then restores the auto-selected target.
RunResult run_scalar_target(ExecutionWorkspace& ws, const Deployment& dep,
                            const Algorithm& algorithm,
                            const ChannelAdapter& channel,
                            const EngineConfig& config, std::uint64_t seed) {
  force_lane_dispatch(LaneDispatch::kGeneric);
  RunResult result = ws.run(dep, algorithm, channel, config, Rng(seed));
  reset_lane_dispatch();
  return result;
}

TEST(LaneIdentity, EveryCertifiedKernelMatchesScalarAndVirtual) {
  // A decide kernel is certified by differential identity alone: on both
  // lane targets it must reproduce the virtual reference bit for bit.
  const auto channels = channel_cases();
  // Ragged sizes on purpose: 48 (sub-word), 65 (one bit past a word; one
  // lane past a block), 127 (one bit short of two words).
  const std::size_t sizes[] = {48, 65, 127};
  for (const AlgorithmSpec& spec : algorithm_catalog()) {
    if (spec.needs_collision_detection) continue;  // no decide kernel uses CD
    for (const ChannelCase& chan : channels) {
      for (const std::size_t n : sizes) {
        Rng dep_rng(900 + n);
        const Deployment dep =
            uniform_square(n, 1.5 * static_cast<double>(n) / 3.0, dep_rng)
                .normalized();
        const auto channel = chan.factory(dep);
        const auto algorithm = make_algorithm(spec.key, dep.size());
        ASSERT_NE(algorithm->columnar(), nullptr)
            << spec.key << ": every registry algorithm without collision "
            << "detection ships a decide kernel";
        ExecutionWorkspace scalar_ws;
        ExecutionWorkspace auto_ws;
        ExecutionWorkspace virt_ws;
        for (std::uint64_t seed = 1; seed <= 32; ++seed) {
          const std::string label = std::string(spec.key) + "/" + chan.name +
                                    "/n" + std::to_string(n) + "/seed" +
                                    std::to_string(seed);
          // Observed mode: the kernel runs inside the materializing loop;
          // the full per-round history must match across targets.
          EngineConfig observed;
          observed.max_rounds = 192;
          observed.record_rounds = true;
          observed.path = ExecutionPath::kFast;
          const RunResult scalar_run = run_scalar_target(
              scalar_ws, dep, *algorithm, *channel, observed, seed);
          const RunResult auto_run =
              auto_ws.run(dep, *algorithm, *channel, observed, Rng(seed));
          expect_identical(scalar_run, auto_run, label);

          // Bare mode: the fast path takes the bitmask round loop (when the
          // algorithm/channel pair supports it); the virtual reference pins
          // that loop's outcomes, not just agreement between the targets.
          EngineConfig bare;
          bare.max_rounds = 192;
          bare.path = ExecutionPath::kFast;
          const RunResult scalar_bare = run_scalar_target(
              scalar_ws, dep, *algorithm, *channel, bare, seed);
          const RunResult auto_bare =
              auto_ws.run(dep, *algorithm, *channel, bare, Rng(seed));
          bare.path = ExecutionPath::kReference;
          const RunResult virt_bare =
              virt_ws.run(dep, *algorithm, *channel, bare, Rng(seed));
          for (const RunResult* r : {&scalar_bare, &auto_bare}) {
            EXPECT_EQ(virt_bare.solved, r->solved) << label;
            EXPECT_EQ(virt_bare.rounds, r->rounds) << label;
            EXPECT_EQ(virt_bare.winner, r->winner) << label;
          }
          // Observed and bare agree on the outcome triple.
          EXPECT_EQ(scalar_run.solved, scalar_bare.solved) << label;
          EXPECT_EQ(scalar_run.rounds, scalar_bare.rounds) << label;
          EXPECT_EQ(scalar_run.winner, scalar_bare.winner) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fcr
