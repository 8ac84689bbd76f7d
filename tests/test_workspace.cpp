// Workspace-layer guarantees:
//   * incremental LinkClassPartition / GoodNodeAnalyzer updates are
//     bit-identical to from-scratch reconstruction (the oracle) under
//     randomized knockout sequences on structurally different deployments,
//   * SpatialGrid::remove leaves every query answering exactly as a fresh
//     grid over the surviving subset,
//   * repeated executions on one ExecutionWorkspace are deterministic and
//     reentrancy-safe,
//   * a WARM workspace runs whole fast-path executions with ZERO heap
//     allocations (global operator new/delete counting hooks).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/fading_cr.hpp"
#include "core/good_nodes.hpp"
#include "core/link_classes.hpp"
#include "deploy/generators.hpp"
#include "geom/grid.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sim/workspace.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. Every allocation in the test binary funnels
// through these replaceable operators; the steady-state test asserts the
// count stays flat across warm executions.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replaced operators pair new->malloc with delete->free by design;
// GCC's heuristic cannot see that both sides are replaced consistently.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
// ---------------------------------------------------------------------------

namespace fcr {
namespace {

std::vector<NodeId> all_ids(std::size_t n) {
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  return ids;
}

// Exact equality across every observable of the partition — the contract is
// bit-identity, so doubles are compared with ==, not a tolerance.
void expect_partition_equal(const LinkClassPartition& incremental,
                            const LinkClassPartition& oracle) {
  ASSERT_EQ(incremental.active_count(), oracle.active_count());
  EXPECT_EQ(incremental.active(), oracle.active());
  ASSERT_EQ(incremental.class_count(), oracle.class_count());
  for (std::size_t i = 0; i < oracle.class_count(); ++i) {
    EXPECT_EQ(incremental.nodes_in(i), oracle.nodes_in(i)) << "class " << i;
  }
  for (const NodeId id : oracle.active()) {
    EXPECT_EQ(incremental.class_of(id), oracle.class_of(id)) << "node " << id;
    const double a = incremental.nearest_distance(id);
    const double b = oracle.nearest_distance(id);
    EXPECT_EQ(a, b) << "nearest_distance of node " << id;
  }
  EXPECT_EQ(incremental.smallest_nonempty(), oracle.smallest_nonempty());
  EXPECT_EQ(incremental.sizes(), oracle.sizes());
}

// Drives a persistent partition through a random knockout schedule and
// checks it against a from-scratch oracle after every round.
void run_knockout_schedule(const Deployment& dep, std::uint64_t seed) {
  std::vector<NodeId> active = all_ids(dep.size());
  LinkClassPartition incremental(dep, active);
  Rng rng(seed);

  while (!active.empty()) {
    std::vector<NodeId> knocked, survivors;
    for (const NodeId id : active) {
      (rng.bernoulli(0.35) ? knocked : survivors).push_back(id);
    }
    if (knocked.empty()) {
      // Force progress: knock out one random active node.
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(survivors.size()));
      knocked.push_back(survivors[pick]);
      survivors.erase(survivors.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    incremental.apply_knockouts(knocked);
    const LinkClassPartition oracle(dep, survivors);
    expect_partition_equal(incremental, oracle);
    active = std::move(survivors);
  }
}

TEST(IncrementalPartition, MatchesOracleOnUniform) {
  Rng gen(101);
  const Deployment dep = uniform_square(160, 26.0, gen).normalized();
  run_knockout_schedule(dep, 7);
  run_knockout_schedule(dep, 8);
}

TEST(IncrementalPartition, MatchesOracleOnExponentialChain) {
  Rng gen(102);
  const Deployment dep = exponential_chain(96, 1 << 14, gen).normalized();
  run_knockout_schedule(dep, 9);
}

TEST(IncrementalPartition, MatchesOracleOnMultiScale) {
  Rng gen(103);
  const Deployment dep = multi_scale(4, 24, gen).normalized();
  run_knockout_schedule(dep, 10);
  run_knockout_schedule(dep, 11);
}

TEST(IncrementalPartition, MatchesOracleOnExactTieLattice) {
  // A lattice maximizes exact-distance ties: every interior node has four
  // neighbors at identical distance, so this exercises the smallest-id
  // tie-break that the incremental==oracle argument depends on.
  std::vector<Vec2> pts;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const Deployment dep(std::move(pts));
  run_knockout_schedule(dep, 12);
  run_knockout_schedule(dep, 13);
}

TEST(IncrementalPartition, SingleKnockoutsDownToEmpty) {
  Rng gen(104);
  const Deployment dep = uniform_square(40, 13.0, gen).normalized();
  std::vector<NodeId> active = all_ids(dep.size());
  LinkClassPartition incremental(dep, active);
  Rng rng(5);
  while (!active.empty()) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(active.size()));
    const NodeId victim = active[pick];
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    incremental.apply_knockouts(std::vector<NodeId>{victim});
    expect_partition_equal(incremental, LinkClassPartition(dep, active));
  }
}

TEST(IncrementalPartition, RejectsInactiveKnockout) {
  const Deployment dep({{0, 0}, {1, 0}, {5, 0}});
  LinkClassPartition part(dep, all_ids(3));
  part.apply_knockouts(std::vector<NodeId>{1});
  EXPECT_THROW(part.apply_knockouts(std::vector<NodeId>{1}),
               std::invalid_argument);
  EXPECT_THROW(part.apply_knockouts(std::vector<NodeId>{7}),
               std::invalid_argument);
}

TEST(SpatialGridRemoval, QueriesMatchFreshGridOverSurvivors) {
  Rng gen(105);
  const Deployment dep = uniform_square(120, 22.0, gen).normalized();
  std::vector<NodeId> alive = all_ids(dep.size());
  SpatialGrid grid(dep.positions(), alive);

  Rng rng(6);
  while (alive.size() > 1) {
    // Remove a random batch.
    std::vector<NodeId> keep;
    for (const NodeId id : alive) {
      if (rng.bernoulli(0.3)) {
        ASSERT_TRUE(grid.remove(id, dep.position(id)));
      } else {
        keep.push_back(id);
      }
    }
    alive = std::move(keep);

    // The fresh grid picks a different auto cell size for the smaller
    // subset; every query must agree anyway.
    const SpatialGrid fresh(dep.positions(), alive);
    ASSERT_EQ(grid.size(), fresh.size());
    for (const NodeId id : alive) {
      const auto a = grid.nearest(dep.position(id), id);
      const auto b = fresh.nearest(dep.position(id), id);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->id, b->id);
        EXPECT_EQ(a->distance, b->distance);
      }
      EXPECT_EQ(grid.count_in_annulus(dep.position(id), 0.5, 4.0, id),
                fresh.count_in_annulus(dep.position(id), 0.5, 4.0, id));
      EXPECT_EQ(grid.count_in_disk(dep.position(id), 2.5, id),
                fresh.count_in_disk(dep.position(id), 2.5, id));
    }
  }
}

TEST(SpatialGridRemoval, RemoveReportsMembership) {
  const Deployment dep({{0, 0}, {1, 0}, {2, 0}});
  SpatialGrid grid(dep.positions());
  EXPECT_TRUE(grid.remove(1, dep.position(1)));
  EXPECT_FALSE(grid.remove(1, dep.position(1)));  // already gone
  EXPECT_EQ(grid.size(), 2u);
  const auto nn = grid.nearest(dep.position(0), 0);
  ASSERT_TRUE(nn.has_value());
  EXPECT_EQ(nn->id, 2u);
}

TEST(GoodNodeAnalyzerIncremental, MatchesFreshAnalyzer) {
  Rng gen(106);
  const Deployment dep = uniform_square(72, 17.0, gen).normalized();
  std::vector<NodeId> active = all_ids(dep.size());
  GoodNodeAnalyzer incremental(dep, active);

  Rng rng(14);
  for (int step = 0; step < 3 && active.size() > 8; ++step) {
    std::vector<NodeId> knocked, survivors;
    for (const NodeId id : active) {
      (rng.bernoulli(0.3) ? knocked : survivors).push_back(id);
    }
    if (knocked.empty()) continue;
    incremental.apply_knockouts(knocked);
    active = survivors;

    const GoodNodeAnalyzer fresh(dep, active);
    expect_partition_equal(incremental.classes(), fresh.classes());
    for (std::size_t i = 0; i < fresh.classes().class_count(); ++i) {
      EXPECT_EQ(incremental.good_in_class(i), fresh.good_in_class(i));
      EXPECT_EQ(incremental.well_spaced_subset(i, 1.0),
                fresh.well_spaced_subset(i, 1.0));
    }
    for (const NodeId u : active) {
      EXPECT_EQ(incremental.partner(u), fresh.partner(u));
    }
  }
}

TEST(Workspace, RepeatedRunsAreDeterministic) {
  Rng gen(107);
  const Deployment dep = uniform_square(64, 16.0, gen).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo;
  EngineConfig config;

  const RunResult first = run_execution(dep, algo, *channel, config, Rng(42));
  for (int i = 0; i < 3; ++i) {
    const RunResult again = run_execution(dep, algo, *channel, config, Rng(42));
    EXPECT_EQ(again.solved, first.solved);
    EXPECT_EQ(again.rounds, first.rounds);
    EXPECT_EQ(again.winner, first.winner);
  }

  // A private stack workspace must agree with the thread's shared one.
  ExecutionWorkspace local;
  const RunResult scoped = local.run(dep, algo, *channel, config, Rng(42));
  EXPECT_EQ(scoped.solved, first.solved);
  EXPECT_EQ(scoped.rounds, first.rounds);
  EXPECT_EQ(scoped.winner, first.winner);
}

TEST(Workspace, ReentrantExecutionFromObserver) {
  Rng gen(108);
  const Deployment dep = uniform_square(24, 10.0, gen).normalized();
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo;
  EngineConfig config;

  const RunResult inner_expected =
      run_execution(dep, algo, *channel, config, Rng(9));
  const RunResult outer_expected =
      run_execution(dep, algo, *channel, config, Rng(10));

  // The observer launches a nested execution every round; the nested run
  // must not disturb the outer one (it gets a stack-local workspace).
  std::size_t nested_runs = 0;
  const RunResult outer = run_execution(
      dep, algo, *channel, config, Rng(10), [&](const RoundView&) {
        const RunResult inner =
            run_execution(dep, algo, *channel, config, Rng(9));
        EXPECT_EQ(inner.solved, inner_expected.solved);
        EXPECT_EQ(inner.rounds, inner_expected.rounds);
        EXPECT_EQ(inner.winner, inner_expected.winner);
        ++nested_runs;
      });
  EXPECT_GT(nested_runs, 0u);
  EXPECT_EQ(outer.solved, outer_expected.solved);
  EXPECT_EQ(outer.rounds, outer_expected.rounds);
  EXPECT_EQ(outer.winner, outer_expected.winner);
}

TEST(Workspace, SteadyStateExecutionsAllocateNothing) {
  // n = 96 resolves every round with the resolver's filter sweep; at
  // n = 2048 the first rounds (about 400 transmitters) also run its
  // near/far tile screen, whose scratch must be warm as well.
  Rng gen(109);
  for (const std::size_t n : {std::size_t{96}, std::size_t{2048}}) {
    const double side =
        n == 96 ? 19.0 : 2.0 * std::sqrt(static_cast<double>(n));
    const Deployment dep = uniform_square(n, side, gen).normalized();
    const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
    const FadingContentionResolution algo;
    EngineConfig config;  // stop_on_solve, no history recording

    ExecutionWorkspace ws;
    // Warm pass: sizes every buffer (columns, round buffers, resolver
    // scratch) for exactly the executions the measured pass repeats.
    std::vector<RunResult> expected;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expected.push_back(ws.run(dep, algo, *channel, config, Rng(seed)));
    }

    const std::size_t before = g_allocations.load();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const RunResult r = ws.run(dep, algo, *channel, config, Rng(seed));
      EXPECT_EQ(r.solved, expected[seed - 1].solved) << "n " << n;
      EXPECT_EQ(r.rounds, expected[seed - 1].rounds) << "n " << n;
      EXPECT_EQ(r.winner, expected[seed - 1].winner) << "n " << n;
    }
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << "a warm workspace must run executions without heap allocation (n "
        << n << ")";
  }
}

TEST(Workspace, WarmRunsAllocateNothingForEveryRegistryAlgorithm) {
  // Iterates the whole catalog on both round loops. Each (algorithm, path)
  // pair warms a private workspace, then repeats the same runs under the
  // counter: the repeats must be bit-identical, and allocation-free when
  // the run takes the fast path (kAuto with a decide kernel at n = 96).
  // The reference loop builds its nodes through make_node, n allocations
  // per run, so only its determinism is checked.
  Rng gen(110);
  const Deployment dep = uniform_square(96, 19.0, gen).normalized();
  const auto sinr = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const auto radio_cd = make_radio_adapter(true);
  for (const AlgorithmSpec& spec : algorithm_catalog()) {
    const auto algorithm = make_algorithm(spec.key, dep.size());
    const ChannelAdapter& channel =
        spec.needs_collision_detection ? *radio_cd : *sinr;
    for (const ExecutionPath path :
         {ExecutionPath::kReference, ExecutionPath::kAuto}) {
      EngineConfig config;
      config.path = path;
      // Bounds the feedback-oblivious baselines that rarely solve n=96
      // (no-knockout); result equality still proves determinism.
      config.max_rounds = 512;

      ExecutionWorkspace ws;
      std::vector<RunResult> expected;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        expected.push_back(ws.run(dep, *algorithm, channel, config, Rng(seed)));
      }
      const std::size_t before = g_allocations.load();
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const RunResult r = ws.run(dep, *algorithm, channel, config, Rng(seed));
        EXPECT_EQ(r.solved, expected[seed - 1].solved) << spec.key;
        EXPECT_EQ(r.rounds, expected[seed - 1].rounds) << spec.key;
        EXPECT_EQ(r.winner, expected[seed - 1].winner) << spec.key;
      }
      const bool fast = path == ExecutionPath::kAuto &&
                        algorithm->columnar() != nullptr;
      if (fast) {
        EXPECT_EQ(g_allocations.load() - before, 0u)
            << "warm fast-path runs of '" << spec.key << "' must not allocate";
      }
    }
  }
}

}  // namespace
}  // namespace fcr
