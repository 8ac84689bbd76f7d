// ExecutionWorkspace: all per-execution state of the round engine, owned in
// one reusable object so steady-state fast-path trials perform ZERO heap
// allocations. A workspace keeps
//   * the COLUMNAR arrays — algorithms exposing Algorithm::columnar() run
//     as structure-of-arrays passes over flat per-node columns (active
//     bitmask, probability, aux, lane-blocked rng streams) instead of
//     virtual dispatch; the columns follow the same reserve-then-refill
//     idiom as the round buffers, so warm columnar runs allocate zero
//     bytes;
//   * the reference loop's nodes, built by Algorithm::make_node, the one
//     node constructor: n small allocations per reference run, paid only
//     below kFastCutover, by algorithms without a decide kernel and by
//     callers pinned to ExecutionPath::kReference;
//   * the round buffers (transmitters, listeners, listener feedback) of
//     the reference loop and of materialized columnar rounds, which only
//     ever shrink-to-reuse via clear()/assign().
//
// The channel and the algorithm are the caller's. The trial runners build
// both fresh for every trial (sim/runner.hpp, sim/parallel_runner.hpp), so
// a stateful channel never carries state from one trial into the next.
//
// Reset discipline (checked by fcrlint's workspace-reset rule): every
// container reused across runs is clear()ed/assign()ed at the start of the
// scope that refills it; the nodes are destroyed by a guard as soon as the
// run ends, so a workspace between runs holds only raw capacity, never
// live protocol state.
//
// One workspace serves one thread at a time (it is mutable scratch, like
// BatchResolver). for_current_thread() hands out a thread_local instance;
// a nested run_execution on the same thread transparently falls back to a
// stack-local workspace (see engine.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "deploy/deployment.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "util/rng_lanes.hpp"

namespace fcr {

class ExecutionWorkspace {
 public:
  /// Deployments below this size run the reference (virtual) path even
  /// when the algorithm has a decide kernel: the fast path pays per-run
  /// lane seeding plus per-round whole-block sweeps, which one lane block
  /// of nodes amortizes (measured per algorithm in docs/PERF.md §6.4).
  /// Both paths are bit-identical, so the constant only affects speed.
  static constexpr std::size_t kFastCutover = 8;

  ExecutionWorkspace() = default;

  ExecutionWorkspace(const ExecutionWorkspace&) = delete;
  ExecutionWorkspace& operator=(const ExecutionWorkspace&) = delete;

  /// Runs one execution, bit-identical to the historical run_execution()
  /// for the same arguments: same node construction order and rng.split
  /// tags, same feedback delivery, same observer views.
  RunResult run(const Deployment& dep, const Algorithm& algorithm,
                const ChannelAdapter& channel, const EngineConfig& config,
                Rng rng, const RoundObserver& observer = {});

  /// True while a run() on this workspace is in progress (used to detect
  /// reentrant executions, e.g. an observer starting a nested run).
  bool busy() const { return busy_; }

  /// The calling thread's workspace (created on first use, reused for the
  /// thread's lifetime). Pool workers are persistent, so per-worker state
  /// pinned here amortizes across every batch the worker ever runs.
  static ExecutionWorkspace& for_current_thread();

 private:
  friend struct NodeTeardownGuard;

  /// Builds the per-node state machines for this run:
  /// nodes_[id] = make_node(id, rng.split(id)), in id order.
  void prepare_nodes(const Algorithm& algorithm, Rng& rng, std::size_t n);

  /// Builds the columnar state for this run: seeds the lane streams with
  /// rng.split(id) for every node id (the exact lineage prepare_nodes hands
  /// to make_node), sets every node active, zeroes the other columns, and
  /// lets the algorithm fill what it uses via columnar_init.
  void prepare_columns(const ColumnarAlgorithm& columnar, const Rng& rng,
                       std::size_t n);

  /// The round loop proper: nodes are already prepared, teardown is the
  /// caller's guard. Split out of run() so the workspace acquire/teardown
  /// failpoints bracket the guarded region exactly.
  RunResult run_rounds(const Deployment& dep, const Algorithm& algorithm,
                       const ChannelAdapter& channel, const EngineConfig& config,
                       const RoundObserver& observer, std::size_t n);

  /// Columnar round loop: decide -> resolve -> one columnar_feedback pass
  /// over the received bitmask, bit-identical to run_rounds for the same
  /// arguments. A flag fixed per run picks one of two round branches:
  ///   * word rounds, for unobserved runs on a channel that resolves
  ///     listeners independently and supports resolve_mask: solo check on
  ///     the decision words, then resolve_mask over the active listeners
  ///     only (no resolution at all for kNone algorithms, empty rounds or
  ///     the stopping round);
  ///   * materialized rounds, for everything else (observer, stop_when,
  ///     record_rounds, stateful channels): id vectors and Feedback
  ///     records for every non-transmitter, exactly as run_rounds resolves
  ///     them, folded into the received bitmask for the feedback pass.
  RunResult run_rounds_columnar(const Deployment& dep,
                                const Algorithm& algorithm,
                                const ColumnarAlgorithm& columnar,
                                const ChannelAdapter& channel,
                                const EngineConfig& config,
                                const RoundObserver& observer,
                                std::size_t n);

  /// Round epilogue shared by both loops: solo detection, history
  /// recording, observer / stop_when delivery. Returns true when the run
  /// should end after this round.
  bool finish_round(const RoundView& view, std::size_t receptions,
                    const EngineConfig& config, const RoundObserver& observer,
                    RunResult& result);

  /// Destroys the run's nodes. Safe on partially constructed state.
  void destroy_nodes();

  // Node storage: node_owners_ owns the run's nodes; nodes_ is the
  // id-indexed pointer view RoundView::nodes hands to observers.
  std::vector<std::unique_ptr<NodeProtocol>> node_owners_;
  std::vector<NodeProtocol*> nodes_;

  // Round buffers, reused across rounds and runs.
  std::vector<NodeId> transmitters_;
  std::vector<NodeId> listeners_;
  std::vector<Feedback> listener_feedback_;

  // Columnar (SoA) engine state: flat per-node columns plus the active and
  // per-round decision bitmasks (word w covers ids [64w, 64w + 64)). Sized
  // by assign() per run, so warm runs reuse capacity allocation-free;
  // columns_ is the span view handed to the algorithm.
  std::vector<std::uint64_t> col_active_;
  std::vector<std::uint64_t> col_decisions_;
  std::vector<double> col_probability_;
  std::vector<std::uint64_t> col_aux_;
  LaneRng lanes_;
  ColumnarState columns_;

  // Columnar round-loop scratch: the word rounds' listen mask and the
  // received mask the feedback pass reads (decision-word layout).
  std::vector<std::uint64_t> col_listen_;
  std::vector<std::uint64_t> col_received_;

  bool busy_ = false;
};

}  // namespace fcr
