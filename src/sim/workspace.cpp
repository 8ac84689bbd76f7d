#include "sim/workspace.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace fcr {

/// Scope guard: tears down the run's nodes however run() exits, so a
/// workspace never holds live protocol state between runs.
struct NodeTeardownGuard {
  ExecutionWorkspace& ws;
  ~NodeTeardownGuard() {
    ws.destroy_nodes();
    ws.busy_ = false;
  }
};

ExecutionWorkspace& ExecutionWorkspace::for_current_thread() {
  thread_local ExecutionWorkspace workspace;
  return workspace;
}

void ExecutionWorkspace::prepare_nodes(const Algorithm& algorithm, Rng& rng,
                                       std::size_t n) {
  node_owners_.clear();
  nodes_.clear();
  node_owners_.reserve(n);
  nodes_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    node_owners_.push_back(algorithm.make_node(id, rng.split(id)));
    FCR_CHECK_MSG(node_owners_.back() != nullptr,
                  "algorithm '" << algorithm.name() << "' returned null node");
    nodes_.push_back(node_owners_.back().get());
  }
}

void ExecutionWorkspace::prepare_columns(const ColumnarAlgorithm& columnar,
                                         const Rng& rng, std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  col_active_.assign(words, ~std::uint64_t{0});
  if ((n & 63) != 0) {
    // Tail word: only bits for real node ids, so popcounts and word sweeps
    // never see phantom nodes.
    col_active_.back() = (std::uint64_t{1} << (n & 63)) - 1;
  }
  col_decisions_.assign(words, 0);
  // Element-column STORAGE is padded to whole lane blocks (the spans handed
  // to the algorithm keep logical size n): the SIMD kernels load 4-lane
  // vectors, and the padding keeps tail loads inside owned memory (see the
  // LaneRng padding contract). Pad entries are zero, which no primitive
  // ever turns into a decision bit.
  const std::size_t padded = LaneRng::padded_count(n);
  col_probability_.assign(padded, 0.0);
  col_aux_.assign(padded, 0);
  // split() does not perturb the parent, so lane id gets exactly the
  // rng.split(id) stream prepare_nodes would hand to make_node.
  lanes_.seed(rng, n);

  columns_ = ColumnarState{col_active_,
                           std::span<double>(col_probability_.data(), n),
                           std::span<std::uint64_t>(col_aux_.data(), n),
                           &lanes_,
                           n,
                           n};
  columnar.columnar_init(columns_);
}

void ExecutionWorkspace::destroy_nodes() {
  nodes_.clear();
  node_owners_.clear();
}

RunResult ExecutionWorkspace::run(const Deployment& dep,
                                  const Algorithm& algorithm,
                                  const ChannelAdapter& channel,
                                  const EngineConfig& config, Rng rng,
                                  const RoundObserver& observer) {
  FCR_ENSURE_ARG(config.max_rounds > 0, "max_rounds must be positive");
  FCR_ENSURE_ARG(!algorithm.requires_collision_detection() ||
                     channel.provides_collision_detection(),
                 "algorithm '" << algorithm.name()
                               << "' needs a collision-detection channel");
  // An injected fault here fails the run before any node state exists —
  // the "could not even acquire the execution state" seam.
  FCR_FAILPOINT("workspace/acquire");
  FCR_CHECK_MSG(!busy_, "workspace is already running an execution");
  busy_ = true;

  const std::size_t n = dep.size();
  const ColumnarAlgorithm* columnar = algorithm.columnar();
  bool use_fast = false;
  switch (config.path) {
    case ExecutionPath::kReference:
      break;
    case ExecutionPath::kFast:
      FCR_ENSURE_ARG(columnar != nullptr,
                     "algorithm '" << algorithm.name()
                                   << "' has no decide kernel");
      use_fast = true;
      break;
    case ExecutionPath::kAuto:
      use_fast = columnar != nullptr && n >= kFastCutover;
      break;
  }

  RunResult result;
  {
    const NodeTeardownGuard guard{*this};
    if (use_fast) {
      prepare_columns(*columnar, rng, n);
      result = run_rounds_columnar(dep, algorithm, *columnar, channel, config,
                                   observer, n);
    } else {
      prepare_nodes(algorithm, rng, n);
      result = run_rounds(dep, algorithm, channel, config, observer, n);
    }
  }
  // Teardown completed and busy_ is already false: an injected fault here
  // models a failure AFTER the run released its state, proving the
  // workspace stays reusable for the retry. Never fired mid-unwind (a
  // throwing teardown would terminate()).
  FCR_FAILPOINT("workspace/teardown");
  return result;
}

RunResult ExecutionWorkspace::run_rounds(const Deployment& dep,
                                         const Algorithm& algorithm,
                                         const ChannelAdapter& channel,
                                         const EngineConfig& config,
                                         const RoundObserver& observer,
                                         std::size_t n) {
  // Worst-case round occupancy up front: every later push_back/assign in
  // the loop stays within capacity, so a warm workspace runs the whole
  // execution without touching the allocator.
  transmitters_.reserve(n);
  listeners_.reserve(n);
  listener_feedback_.reserve(n);

  RunResult result;
  for (std::uint64_t round = 1; round <= config.max_rounds; ++round) {
    transmitters_.clear();
    listeners_.clear();
    for (NodeId id = 0; id < n; ++id) {
      const Action a = nodes_[id]->on_round_begin(round);
      (a == Action::kTransmit ? transmitters_ : listeners_).push_back(id);
    }

    listener_feedback_.assign(listeners_.size(), Feedback{});
    channel.resolve(dep, transmitters_, listeners_, listener_feedback_);

    std::size_t receptions = 0;
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if (listener_feedback_[i].received) ++receptions;
      nodes_[listeners_[i]]->on_round_end(listener_feedback_[i]);
    }
    // Transmitters learn nothing beyond the fact that they transmitted.
    Feedback tx_feedback;
    tx_feedback.transmitted = true;
    for (const NodeId id : transmitters_) nodes_[id]->on_round_end(tx_feedback);

    RoundView view;
    view.round = round;
    view.transmitters = transmitters_;
    view.listeners = listeners_;
    view.listener_feedback = listener_feedback_;
    view.nodes = nodes_;
    view.node_count = n;
    if (finish_round(view, receptions, config, observer, result)) return result;
  }

  if (!result.solved) {
    result.rounds = config.max_rounds;
    FCR_DEBUG("execution of '" << algorithm.name() << "' on n=" << n
                               << " unsolved after " << config.max_rounds
                               << " rounds");
  }
  return result;
}

RunResult ExecutionWorkspace::run_rounds_columnar(
    const Deployment& dep, const Algorithm& algorithm,
    const ColumnarAlgorithm& columnar, const ChannelAdapter& channel,
    const EngineConfig& config, const RoundObserver& observer, std::size_t n) {
  // Word rounds: nobody observes the run and every listener's feedback is
  // a pure function of the transmitter set, so the round stays in bitmask
  // words end to end. Everything they skip is unobservable:
  //   * inactive listeners are not resolved — their feedback cannot change
  //     their state (deactivation is terminal, see ColumnarState);
  //   * kNone rounds and empty rounds are not resolved at all;
  //   * the stopping round is not resolved — its knockouts are state the
  //     teardown guard destroys before anyone could look.
  // Every other run materializes id vectors and Feedback records for the
  // observer and makes exactly the channel.resolve calls of the reference
  // loop, over every non-transmitter, so stateful channels (Rayleigh,
  // lossy, jamming) draw the same streams.
  const bool observed = static_cast<bool>(observer) ||
                        static_cast<bool>(config.stop_when) ||
                        config.record_rounds;
  const bool words_only = !observed &&
                          channel.resolves_listeners_independently() &&
                          channel.supports_mask_resolve();
  const bool knockouts = columnar.feedback_mode() ==
                         ColumnarAlgorithm::FeedbackMode::kReceivedMask;

  const std::size_t words = col_active_.size();
  col_listen_.assign(words, 0);
  col_received_.assign(words, 0);
  if (!words_only) {
    transmitters_.reserve(n);
    listeners_.reserve(n);
    listener_feedback_.reserve(n);
  }

  RunResult result;
  for (std::uint64_t round = 1; round <= config.max_rounds; ++round) {
    std::fill(col_decisions_.begin(), col_decisions_.end(), std::uint64_t{0});
    columnar.decide(round, columns_, col_decisions_);

    if (words_only) {
      std::size_t tx_count = 0;
      for (std::size_t w = 0; w < words; ++w) {
        tx_count += static_cast<std::size_t>(std::popcount(col_decisions_[w]));
      }
      if (tx_count == 1 && !result.solved) {
        result.solved = true;
        result.rounds = round;
        for (std::size_t w = 0; w < words; ++w) {
          if (col_decisions_[w] != 0) {
            result.winner = static_cast<NodeId>(
                w * 64 + static_cast<std::size_t>(
                             std::countr_zero(col_decisions_[w])));
            break;
          }
        }
      }
      if (result.solved && config.stop_on_solve) return result;

      if (knockouts && tx_count > 0) {
        for (std::size_t w = 0; w < words; ++w) {
          col_listen_[w] = col_active_[w] & ~col_decisions_[w];
        }
        channel.resolve_mask(dep, col_decisions_, col_listen_, tx_count,
                             col_received_);
        columnar.columnar_feedback(columns_, col_received_);
      }
      continue;
    }

    transmitters_.clear();
    listeners_.clear();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t tx = col_decisions_[w];
      std::uint64_t listen = ~tx;
      if (w == words - 1 && (n & 63) != 0) {
        listen &= (std::uint64_t{1} << (n & 63)) - 1;
      }
      const NodeId base = static_cast<NodeId>(w * 64);
      while (tx != 0) {
        transmitters_.push_back(base +
                                static_cast<NodeId>(std::countr_zero(tx)));
        tx &= tx - 1;
      }
      while (listen != 0) {
        listeners_.push_back(base +
                             static_cast<NodeId>(std::countr_zero(listen)));
        listen &= listen - 1;
      }
    }

    listener_feedback_.assign(listeners_.size(), Feedback{});
    channel.resolve(dep, transmitters_, listeners_, listener_feedback_);

    std::fill(col_received_.begin(), col_received_.end(), std::uint64_t{0});
    std::size_t receptions = 0;
    for (std::size_t i = 0; i < listeners_.size(); ++i) {
      if (!listener_feedback_[i].received) continue;
      ++receptions;
      const NodeId id = listeners_[i];
      col_received_[id >> 6] |= std::uint64_t{1} << (id & 63);
    }
    columnar.columnar_feedback(columns_, col_received_);

    RoundView view;
    view.round = round;
    view.transmitters = transmitters_;
    view.listeners = listeners_;
    view.listener_feedback = listener_feedback_;
    view.active_bits = col_active_;
    view.active_count = columns_.active_count;
    view.node_count = n;
    if (finish_round(view, receptions, config, observer, result)) return result;
  }

  if (!result.solved) {
    result.rounds = config.max_rounds;
    FCR_DEBUG("columnar execution of '" << algorithm.name() << "' on n=" << n
                                        << " unsolved after "
                                        << config.max_rounds << " rounds");
  }
  return result;
}

bool ExecutionWorkspace::finish_round(const RoundView& view,
                                      std::size_t receptions,
                                      const EngineConfig& config,
                                      const RoundObserver& observer,
                                      RunResult& result) {
  if (view.transmitters.size() == 1 && !result.solved) {
    result.solved = true;
    result.rounds = view.round;
    result.winner = view.transmitters.front();
  }

  if (config.record_rounds) {
    RoundStats stats;
    stats.round = view.round;
    stats.transmitters = view.transmitters.size();
    stats.receptions = receptions;
    stats.contending = view.contending_count();
    // history grows only when config.record_rounds is set, which the
    // benchmarked zero-alloc steady state never enables.
    // FCRLINT_ALLOW(hot-path-alloc): diagnostics-only recording path
    result.history.push_back(stats);
  }

  if (observer) observer(view);
  if (config.stop_when && config.stop_when(view)) {
    if (!result.solved) result.rounds = view.round;
    return true;
  }

  return result.solved && config.stop_on_solve;
}

}  // namespace fcr
