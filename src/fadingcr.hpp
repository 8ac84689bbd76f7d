// Umbrella header: the whole fadingcr public API in one include.
//
//   #include "fadingcr.hpp"
//
// Link against the `fadingcr` CMake interface target. Individual headers
// remain the preferred includes inside the library itself.
#pragma once

// Utilities.
#include "util/check.hpp"         // contract macros
#include "util/cli.hpp"           // flag parsing for tools/benches
#include "util/csv.hpp"           // CSV output
#include "util/error.hpp"         // structured error taxonomy
#include "util/failpoint.hpp"     // deterministic fault injection
#include "util/log.hpp"           // leveled logging
#include "util/rng.hpp"           // deterministic RNG + splitting
#include "util/table.hpp"         // console tables

// Geometry.
#include "geom/ascii_plot.hpp"    // terminal scatter plots
#include "geom/bbox.hpp"
#include "geom/grid.hpp"          // spatial grid
#include "geom/hull.hpp"          // convex hull / diameter
#include "geom/point.hpp"

// Deployments.
#include "deploy/deployment.hpp"  // link statistics, R, normalization
#include "deploy/generators.hpp"  // uniform/cluster/chain/... workloads
#include "deploy/io.hpp"          // CSV (de)serialization
#include "deploy/transform.hpp"   // isometries

// Channel models.
#include "radio/channel.hpp"      // classical radio (collision) model
#include "sinr/accumulate.hpp"    // deterministic pairwise summation
#include "sinr/batch.hpp"         // batched certified round resolution
#include "sinr/channel.hpp"       // the paper's fading channel
#include "sinr/params.hpp"        // SINR parameters, single-hop bound
#include "sinr/validate.hpp"      // model-assumption audit

// Simulation engine.
#include "sim/audit.hpp"          // trace auditor
#include "sim/beep.hpp"           // beeping-channel adapter
#include "sim/campaign.hpp"       // fault-tolerant checkpointed sweeps
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"         // synchronous round engine
#include "sim/metrics.hpp"        // contention-decay summaries
#include "sim/parallel_runner.hpp"
#include "sim/protocol.hpp"       // Algorithm / NodeProtocol interfaces
#include "sim/runner.hpp"         // multi-trial batches
#include "sim/subset.hpp"         // activated-subset wrapper
#include "sim/thread_pool.hpp"    // persistent trial thread pool
#include "sim/trace.hpp"          // execution tracing

// The paper (core contribution + analysis machinery).
#include "core/class_bounds.hpp"    // Section 3.3 q_t vectors
#include "core/contention_estimator.hpp" // channel-based k estimation
#include "core/deployment_stats.hpp" // workload characterization
#include "core/exact.hpp"           // exact Markov analysis (tiny n)
#include "core/fading_cr.hpp"       // THE algorithm
#include "core/good_nodes.hpp"      // Definition 1, S_i, Lemma 6 machinery
#include "core/knockout_forest.hpp" // causal structure of executions
#include "core/link_classes.hpp"    // Section 3.1 partition
#include "core/round_analysis.hpp"  // Corollary 7 live verification
#include "core/theory.hpp"          // proof-constant chain

// Baselines.
#include "algorithms/aloha.hpp"
#include "algorithms/backoff.hpp"
#include "algorithms/cd_leader.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/fast_decay.hpp"
#include "algorithms/no_knockout.hpp"
#include "algorithms/registry.hpp"
#include "algorithms/sift.hpp"

// Lower bound (Section 4).
#include "lowerbound/adversary.hpp"    // pigeonhole adversary
#include "lowerbound/optimal.hpp"      // exact optimal game value
#include "lowerbound/embedding.hpp"    // Theorem 12 instance
#include "lowerbound/hitting_game.hpp" // restricted k-hitting game
#include "lowerbound/players.hpp"
#include "lowerbound/reduction.hpp"    // Lemma 14 reduction

// Statistics.
#include "stats/bootstrap.hpp"
#include "stats/chernoff.hpp"
#include "stats/histogram.hpp"
#include "stats/ks_test.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

// Extensions beyond the paper's model.
#include "ext/adaptive.hpp"
#include "ext/carrier_sense.hpp"
#include "ext/duty_cycle.hpp"
#include "ext/faults.hpp"
#include "ext/interleave.hpp"
#include "ext/local_leaders.hpp"
#include "ext/mixed.hpp"
#include "ext/power_control.hpp"
#include "ext/rayleigh.hpp"
#include "ext/staggered.hpp"
