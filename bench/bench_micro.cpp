// Micro-benchmarks (google-benchmark): throughput of the hot paths that
// dominate experiment wall-clock — SINR round resolution, deployment
// set-up, spatial-grid queries, link-class partitioning, and the RNG.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "algorithms/decay.hpp"
#include "core/fading_cr.hpp"
#include "core/link_classes.hpp"
#include "deploy/generators.hpp"
#include "fabric/spec.hpp"
#include "geom/grid.hpp"
#include "geom/hull.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "sinr/batch.hpp"
#include "sinr/channel.hpp"
#include "util/rng.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {
namespace {

Deployment make_uniform(std::size_t n) {
  Rng rng(12345);
  return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
      .normalized();
}

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngBernoulli(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli(0.2));
  }
}
BENCHMARK(BM_RngBernoulli);

void BM_SinrResolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  const SinrChannel channel(params);
  Rng rng(3);
  std::vector<NodeId> tx, listeners;
  for (NodeId i = 0; i < n; ++i) {
    (rng.bernoulli(0.2) ? tx : listeners).push_back(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.resolve(dep, tx, listeners));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tx.size() * listeners.size()));
}
BENCHMARK(BM_SinrResolve)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BatchResolve(benchmark::State& state) {
  // The batch path (near/far screen from kScreenMinTransmitters up, then
  // the certified filter): bit-identical output to BM_SinrResolve's scan.
  // The resolver persists across iterations the way it persists across a
  // trial's rounds, so scratch reuse is measured too.
  // scripts/perf_smoke.sh compares this against BM_SinrResolve at the same
  // n and records the ratio in BENCH_resolve.json.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  BatchResolver resolver(params);
  Rng rng(3);
  std::vector<NodeId> tx, listeners;
  for (NodeId i = 0; i < n; ++i) {
    (rng.bernoulli(0.2) ? tx : listeners).push_back(i);
  }
  std::vector<Reception> out;
  for (auto _ : state) {
    resolver.resolve(dep, tx, listeners, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tx.size() * listeners.size()));
  state.counters["screened"] =
      static_cast<double>(resolver.last_stats().screened);
  state.counters["certified"] =
      static_cast<double>(resolver.last_stats().certified);
  state.counters["exact_fallbacks"] =
      static_cast<double>(resolver.last_stats().exact_fallbacks);
}
BENCHMARK(BM_BatchResolve)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SinrResolveExhaustive(benchmark::State& state) {
  // The O(T^2 L) reference resolver; the ratio to BM_SinrResolve quantifies
  // the strongest-transmitter optimization (expect ~T x).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  const SinrChannel channel(params);
  Rng rng(3);
  std::vector<NodeId> tx, listeners;
  for (NodeId i = 0; i < n; ++i) {
    (rng.bernoulli(0.2) ? tx : listeners).push_back(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.resolve_exhaustive(dep, tx, listeners));
  }
}
BENCHMARK(BM_SinrResolveExhaustive)->Arg(64)->Arg(256);

void BM_GridBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  for (auto _ : state) {
    const SpatialGrid grid(dep.positions());
    benchmark::DoNotOptimize(grid.size());
  }
}
BENCHMARK(BM_GridBuild)->Arg(256)->Arg(4096);

void BM_GridNearest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const SpatialGrid grid(dep.positions());
  NodeId q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.nearest(dep.position(q), q));
    q = (q + 1) % static_cast<NodeId>(n);
  }
}
BENCHMARK(BM_GridNearest)->Arg(256)->Arg(4096);

void BM_DeploymentFactory(benchmark::State& state) {
  // fcrsim's default deployment factory (uniform square, side 2 sqrt(n),
  // normalized): one draw and two Deployment constructors, each of which
  // computes the shortest and the longest link.
  fabric::SweepSpec spec;
  spec.n = static_cast<std::size_t>(state.range(0));
  const DeploymentFactory deploy = fabric::make_factories(spec).deploy;
  Rng rng(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deploy(rng).max_link());
  }
}
BENCHMARK(BM_DeploymentFactory)->Arg(1024)->Arg(4096);

void BM_MinPairwise(benchmark::State& state) {
  // Grid build plus the certified half-stencil closest-pair sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_pairwise_distance(dep.positions()));
  }
  state.counters["certified"] =
      SpatialGrid(dep.positions()).closest_pair_sweep().certified ? 1.0 : 0.0;
}
BENCHMARK(BM_MinPairwise)->Arg(4096);

void BM_MinPairwiseNearest(benchmark::State& state) {
  // The in-process reference for BM_MinPairwise: grid build plus one
  // nearest_distance query per point (the loop min_pairwise_distance
  // falls back to when the sweep is not certified). BM_MinPairwise / this
  // is the closest-pair ratio scripts/perf_compare.py gates.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const std::vector<Vec2>& points = dep.positions();
  for (auto _ : state) {
    const SpatialGrid grid(points);
    double best = std::numeric_limits<double>::infinity();
    for (NodeId id = 0; id < points.size(); ++id) {
      best = std::min(best, *grid.nearest_distance(points[id], id));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_MinPairwiseNearest)->Arg(4096);

void BM_Diameter(benchmark::State& state) {
  // Octagon prefilter, monotone-chain hull and rotating calipers.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diameter(dep.positions()));
  }
}
BENCHMARK(BM_Diameter)->Arg(4096);

void BM_LinkClassPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  std::vector<NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  for (auto _ : state) {
    const LinkClassPartition part(dep, ids);
    benchmark::DoNotOptimize(part.active_count());
  }
}
BENCHMARK(BM_LinkClassPartition)->Arg(256)->Arg(4096);

/// Columnar state fixture for the decide-kernel benches: n nodes, all
/// active, element columns padded per the LaneRng contract — exactly what
/// ExecutionWorkspace::prepare_columns builds.
struct DecideFixture {
  explicit DecideFixture(std::size_t n, const ColumnarAlgorithm& algo)
      : words((n + 63) / 64),
        active(words, ~std::uint64_t{0}),
        decisions(words, 0),
        probability(LaneRng::padded_count(n), 0.0),
        aux(LaneRng::padded_count(n), 0) {
    if ((n & 63) != 0) active.back() = (std::uint64_t{1} << (n & 63)) - 1;
    lanes.seed(Rng(42), n);
    state = ColumnarState{active,
                          std::span<double>(probability.data(), n),
                          std::span<std::uint64_t>(aux.data(), n),
                          &lanes,
                          n,
                          n};
    algo.columnar_init(state);
  }

  std::size_t words;
  std::vector<std::uint64_t> active;
  std::vector<std::uint64_t> decisions;
  std::vector<double> probability;
  std::vector<std::uint64_t> aux;
  LaneRng lanes;
  ColumnarState state;
};

/// The fading decide kernel in isolation: one bernoulli per active node on
/// the lane streams (W = 8 blocked xoshiro, word-packed decision output).
void run_decide_kernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FadingContentionResolution algo;
  DecideFixture fx(n, algo);
  std::uint64_t round = 1;
  for (auto _ : state) {
    std::fill(fx.decisions.begin(), fx.decisions.end(), std::uint64_t{0});
    algo.decide(round++, fx.state, fx.decisions);
    benchmark::DoNotOptimize(fx.decisions.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_DecideKernelLanes(benchmark::State& state) {
  // The auto-dispatched target (AVX2 where the host has it).
  run_decide_kernel(state);
}
BENCHMARK(BM_DecideKernelLanes)->Arg(256)->Arg(1024)->Arg(16384);

void BM_DecideKernelGeneric(benchmark::State& state) {
  // The same kernel pinned to the portable plain-u64 target. Bit-identical
  // decisions (tests/test_lane_identity.cpp); Lanes / Generic is the
  // machine-independent decide-kernel ratio scripts/perf_compare.py gates.
  force_lane_dispatch(LaneDispatch::kGeneric);
  run_decide_kernel(state);
  reset_lane_dispatch();
}
BENCHMARK(BM_DecideKernelGeneric)->Arg(256)->Arg(1024)->Arg(16384);

/// One bitmask round on `dep` (alpha = 3, each node transmits with
/// probability 0.2), resolved by BatchResolver::resolve_mask: the path the
/// unobserved engine uses — word-skip transmitter enumeration straight
/// from decision words, received bits packed back into a mask.
void run_resolve_mask(benchmark::State& state, const Deployment& dep) {
  const std::size_t n = dep.size();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  BatchResolver resolver(params);
  Rng rng(3);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> tx(words, 0), listen(words, 0), received(words, 0);
  std::size_t tx_count = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (rng.bernoulli(0.2)) {
      tx[i >> 6] |= std::uint64_t{1} << (i & 63);
      ++tx_count;
    } else {
      listen[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  for (auto _ : state) {
    resolver.resolve_mask(dep, tx, listen, received);
    benchmark::DoNotOptimize(received.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(tx_count * (n - tx_count)));
  state.counters["screened"] =
      static_cast<double>(resolver.last_stats().screened);
}

/// fcrsim's deployment of `kind` at n nodes, drawn from a fixed seed.
Deployment make_kind(const char* kind, std::size_t n) {
  fabric::SweepSpec spec;
  spec.deployment = kind;
  spec.n = n;
  Rng rng(12345);
  return fabric::make_factories(spec).deploy(rng);
}

void BM_ResolveMask(benchmark::State& state) {
  // Uniform square. Compare BM_BatchResolve at the same n for the
  // id-vector materialization cost.
  run_resolve_mask(state,
                   make_uniform(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ResolveMask)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ResolveMaskClusters(benchmark::State& state) {
  // Eight Thomas clusters: the near/far screen's near field is about one
  // cluster.
  run_resolve_mask(
      state, make_kind("clusters", static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ResolveMaskClusters)->Arg(4096);

void BM_ResolveMaskChain(benchmark::State& state) {
  // Exponential chain: one row of the screen's tiles.
  run_resolve_mask(
      state, make_kind("chain", static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_ResolveMaskChain)->Arg(4096);

void BM_FullExecution(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo;
  EngineConfig config;
  config.max_rounds = 100000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const RunResult r =
        run_execution(dep, algo, *channel, config, Rng(seed++));
    benchmark::DoNotOptimize(r.rounds);
  }
}
BENCHMARK(BM_FullExecution)->Arg(8)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_FullExecutionVirtual(benchmark::State& state) {
  // The per-node virtual engine, pinned explicitly. BM_FullExecution above
  // runs the default path (the fast path at these sizes, from
  // ExecutionWorkspace::kFastCutover = 8 up); n = 8, 16 compare the two
  // paths right at the cutover. The reference rounds resolve through the
  // id-vector BatchResolver, which dominates them, so the engine-only
  // ratio that scripts/perf_compare.py gates uses the radio pair below.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo;
  EngineConfig config;
  config.max_rounds = 100000;
  config.path = ExecutionPath::kReference;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const RunResult r =
        run_execution(dep, algo, *channel, config, Rng(seed++));
    benchmark::DoNotOptimize(r.rounds);
  }
}
BENCHMARK(BM_FullExecutionVirtual)
    ->Arg(8)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// Shared body of the radio execution pair: Decay with known N on the plain
/// radio channel, whose resolve is one flat pass over the listeners, so
/// fast ÷ reference measures the round engine alone (the machine-
/// independent ratio scripts/perf_compare.py gates as columnar-execution).
void run_radio_execution(benchmark::State& state, ExecutionPath path) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const auto channel = make_radio_adapter(false);
  const DecayKnownN algo(n);
  EngineConfig config;
  config.max_rounds = 100000;
  config.path = path;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const RunResult r =
        run_execution(dep, algo, *channel, config, Rng(seed++));
    benchmark::DoNotOptimize(r.rounds);
  }
}

void BM_FullExecutionRadio(benchmark::State& state) {
  run_radio_execution(state, ExecutionPath::kAuto);
}
BENCHMARK(BM_FullExecutionRadio)->Arg(1024);

void BM_FullExecutionRadioVirtual(benchmark::State& state) {
  run_radio_execution(state, ExecutionPath::kReference);
}
BENCHMARK(BM_FullExecutionRadioVirtual)->Arg(1024);

/// Shared body for the instrumented-sweep benches: one full execution per
/// iteration with a per-round link-class census observer. `incremental`
/// selects the persistent partition shrunk by apply_knockouts (the
/// post-workspace hot path) vs a from-scratch LinkClassPartition every
/// round (the pre-workspace instrumentation pattern, kept as the oracle
/// the incremental path is verified against). Both produce identical
/// censuses; scripts/perf_smoke.sh reports the ratio.
void run_instrumented_trial(benchmark::State& state, bool incremental) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Deployment dep = make_uniform(n);
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9)(dep);
  const FadingContentionResolution algo;
  EngineConfig config;
  config.max_rounds = 100000;
  // Sweep-level census cache: every trial starts from the same pre-round-1
  // active set (all nodes contend), so the full-set partition is built once
  // per deployment and copied per trial. The partition holds no trial
  // state, and apply_knockouts is bit-identical to a fresh build (the
  // oracle tests), so the copy changes no observed value.
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  const LinkClassPartition initial(dep, all);
  std::vector<NodeId> knocked;
  std::vector<NodeId> active;
  std::uint64_t seed = 0;
  std::int64_t rounds_total = 0;

  // Lives across trials so the per-trial reset `part = initial` copy-assigns
  // into warm storage (vector capacities and grid cells are reused; removals
  // only empty grid cells, never erase them).
  std::optional<LinkClassPartition> part;
  for (auto _ : state) {
    if (incremental) part = initial;
    const auto observer = [&](const RoundView& view) {
      if (!incremental) {
        // The pre-workspace pattern: scan everyone, build from scratch.
        active.clear();
        for (NodeId id = 0; id < view.size(); ++id) {
          if (view.is_contending(id)) active.push_back(id);
        }
        part.emplace(dep, active);
      } else {
        // Only a previously-active node can be knocked out — contention
        // knockouts are monotone for every algorithm in this repo, so the
        // sweep scans the partition's active list, not all n nodes. (The
        // product pipeline in core/round_analysis.cpp keeps a full-scan
        // rejoin fallback for adversarial schedules; this bench measures
        // the steady-state sweep.)
        knocked.clear();
        for (const NodeId id : part->active()) {
          if (!view.is_contending(id)) knocked.push_back(id);
        }
        part->apply_knockouts(knocked);
      }
      benchmark::DoNotOptimize(part->smallest_nonempty());
    };
    const RunResult r =
        run_execution(dep, algo, *channel, config, Rng(seed++), observer);
    benchmark::DoNotOptimize(r.rounds);
    rounds_total += static_cast<std::int64_t>(r.rounds);
  }
  state.SetItemsProcessed(rounds_total);
}

void BM_TrialWorkspace(benchmark::State& state) {
  // Steady-state instrumented sweep throughput: executions run on the
  // calling thread's persistent ExecutionWorkspace (zero engine-side heap
  // allocations once warm; tests/test_workspace.cpp asserts it) and the
  // census is maintained incrementally — O(total knockouts) partition work
  // per execution instead of O(rounds * n log n).
  run_instrumented_trial(state, /*incremental=*/true);
}
BENCHMARK(BM_TrialWorkspace)->Arg(256)->Arg(1024);

void BM_TrialInstrumentedRebuild(benchmark::State& state) {
  // The pre-workspace pattern: a from-scratch partition every round.
  run_instrumented_trial(state, /*incremental=*/false);
}
BENCHMARK(BM_TrialInstrumentedRebuild)->Arg(256);

void BM_TrialBatchPool(benchmark::State& state) {
  // A whole small trial set through run_trials_parallel per iteration.
  // The persistent pool makes the per-call overhead a few enqueues instead
  // of a spawn-and-join of fresh std::threads; many small batches is
  // exactly the sweep-driver pattern.
  const auto n = static_cast<std::size_t>(state.range(0));
  const DeploymentFactory deploy = [n](Rng& rng) {
    return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
        .normalized();
  };
  TrialConfig config;
  config.trials = 8;
  config.seed = 20160725;
  config.engine.max_rounds = 100000;
  for (auto _ : state) {
    const TrialSetResult r =
        run_trials_parallel(deploy, sinr_channel_factory(3.0, 1.5, 1e-9),
                            [](const Deployment&) {
                              return std::make_unique<FadingContentionResolution>();
                            },
                            config, ThreadPool::global().worker_count());
    benchmark::DoNotOptimize(r.solved);
  }
}
BENCHMARK(BM_TrialBatchPool)->Arg(64)->Arg(256);

}  // namespace
}  // namespace fcr

// Stamped by the build system; scripts/perf_smoke.sh refuses to publish
// numbers from anything but a Release build (the benchmark library's own
// library_build_type reports how *it* was compiled, not how we were).
#ifndef FCR_BUILD_TYPE
#define FCR_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fcr_build_type", FCR_BUILD_TYPE);
  // Provenance: scripts/perf_smoke.sh exports the commit it benchmarked so
  // committed BENCH_*.json baselines are attributable to a tree state.
  if (const char* sha = std::getenv("FCR_GIT_SHA")) {
    benchmark::AddCustomContext("git_sha", sha);
  }
  if (const char* dirty = std::getenv("FCR_GIT_DIRTY")) {
    benchmark::AddCustomContext("git_dirty", dirty);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
