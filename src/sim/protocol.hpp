// Protocol interface: how an algorithm's per-node state machine plugs into
// the synchronous round engine.
//
// Model contract (paper, Section 2): in each round a node either transmits
// at fixed power or listens; listeners may decode one message per the
// channel model; transmitters learn nothing about the fate of their
// transmission (no acknowledgments in either the SINR or the radio model).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "geom/grid.hpp"
#include "radio/channel.hpp"
#include "util/rng.hpp"

namespace fcr {

class LaneRng;  // util/rng_lanes.hpp — W=8 lane-blocked per-node streams

/// A node's choice for one round.
enum class Action : std::uint8_t { kListen = 0, kTransmit = 1 };

/// What a node learns at the end of a round.
struct Feedback {
  bool transmitted = false;       ///< echo of the node's own action
  bool received = false;          ///< decoded a message (listeners only)
  NodeId sender = kInvalidNode;   ///< decoded sender when received
  /// Channel observation for models with carrier information. In the SINR
  /// and plain radio models listeners cannot distinguish collision from
  /// silence, so this is kMessage or kSilence; the collision-detection radio
  /// model may report kCollision.
  RadioObservation observation = RadioObservation::kSilence;
};

/// Per-node protocol state machine. Owned by the engine; one per node.
class NodeProtocol {
 public:
  virtual ~NodeProtocol() = default;

  /// Decides the node's action for round `round` (1-based).
  virtual Action on_round_begin(std::uint64_t round) = 0;

  /// Delivers the round outcome to the node.
  virtual void on_round_end(const Feedback& feedback) = 0;

  /// Whether the node still considers itself in contention. Purely
  /// observational (used by instrumentation such as the link-class metrics);
  /// the engine never acts on it. Default: always contending.
  virtual bool is_contending() const { return true; }
};

/// Mutable view over the engine-owned columnar (structure-of-arrays) node
/// state for one execution. Instead of one virtual state machine per node,
/// a ColumnarAlgorithm reads and writes these flat arrays, all indexed by
/// NodeId (bitmask word w covers ids [64w, 64w + 64)).
///
/// Column roles (an algorithm uses the columns it needs, the engine zeroes
/// the rest at run start):
///   * active      — contention bitmask; bit id set = node id still contends.
///                   Knockouts are bitmask clears via deactivate().
///   * probability — per-node transmit probability.
///   * aux         — per-node auxiliary word (chosen slots, epoch state, ...).
///   * lanes       — the per-node private streams, lane-blocked (LaneRng),
///                   seeded rng.split(id) in id order exactly like the
///                   virtual path's node construction.
/// The probability and aux spans have logical size n; their storage is
/// padded to whole lane blocks per the LaneRng padding contract.
///
/// Contract: deactivation is TERMINAL. The engine never re-sets an active
/// bit, and an algorithm must not let a deactivated node's future decisions
/// depend on feedback delivered after its knockout. The engine relies on
/// this both ways (see ExecutionWorkspace::run_rounds_columnar): unobserved
/// rounds resolve only the active listeners, and materialized rounds hand
/// the feedback pass received bits of listeners that are already inactive,
/// which deactivate() ignores (it is idempotent).
struct ColumnarState {
  std::span<std::uint64_t> active;
  std::span<double> probability;
  std::span<std::uint64_t> aux;
  LaneRng* lanes = nullptr;
  std::size_t node_count = 0;
  std::size_t active_count = 0;  ///< popcount of `active`, kept by deactivate()

  bool is_active(NodeId id) const {
    return ((active[id >> 6] >> (id & 63)) & 1ULL) != 0;
  }

  /// The knockout primitive: clears id's active bit (idempotent) and keeps
  /// active_count in sync.
  void deactivate(NodeId id) {
    std::uint64_t& word = active[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((word & bit) != 0) {
      word &= ~bit;
      --active_count;
    }
  }
};

/// Columnar (SoA) capability of an Algorithm: expresses one round as
/// whole-population passes instead of n virtual dispatches — decide-all,
/// then the channel resolves the round, then one feedback pass over the
/// received bitmask.
///
/// Bit-identity contract: for every node id, the decision bits produced by
/// decide and the state evolution under columnar_feedback MUST match what
/// make_node(id, rng.split(id)) would have decided from the same stream —
/// same draws from node id's lane stream as the virtual node makes from its
/// Rng, in the same order. The engine proves this against the virtual path
/// as reference (tests/test_columnar_identity.cpp).
class ColumnarAlgorithm {
 public:
  virtual ~ColumnarAlgorithm() = default;

  /// How much of the round's feedback the algorithm consumes. The engine
  /// uses this to skip channel resolution in unobserved runs.
  enum class FeedbackMode : std::uint8_t {
    /// The algorithm only cares WHICH listeners received a message: the
    /// engine delivers feedback as a received bitmask via
    /// columnar_feedback.
    kReceivedMask,
    /// Feedback-oblivious: columnar_feedback is the default no-op (decay
    /// family, backoff, aloha, sift). The engine skips resolution
    /// entirely in unobserved rounds.
    kNone,
  };

  /// Fills the columns the algorithm uses before round 1. The engine has
  /// already seeded state.lanes and set every node active. Default: no-op.
  virtual void columnar_init(ColumnarState& state) const { (void)state; }

  /// Decide pass for `round` (1-based): sets bit id in `decisions` (same
  /// word layout as state.active, pre-zeroed by the engine) for every node
  /// that transmits this round, drawing from state.lanes.
  virtual void decide(std::uint64_t round, ColumnarState& state,
                      std::span<std::uint64_t> decisions) const = 0;

  /// Declared feedback consumption; kNone requires the default no-op
  /// columnar_feedback.
  virtual FeedbackMode feedback_mode() const = 0;

  /// Feedback pass: `received` has the active/decisions word layout, bit id
  /// set when listener id decoded a message this round. Transmitters learn
  /// nothing in the model (no acknowledgments), so their bits are never
  /// set. Bits of inactive listeners may be set (see ColumnarState).
  /// Default: no-op (kNone algorithms).
  virtual void columnar_feedback(
      ColumnarState& state, std::span<const std::uint64_t> received) const {
    (void)state;
    (void)received;
  }
};

/// Factory for a protocol: one Algorithm instance configures a family of
/// per-node state machines for one execution.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string name() const = 0;

  /// Creates the state machine for node `id` with its private random
  /// stream. The only node constructor: the reference round loop builds
  /// every node of a run through it, in id order with stream rng.split(id).
  virtual std::unique_ptr<NodeProtocol> make_node(NodeId id, Rng rng) const = 0;

  /// The algorithm's columnar (SoA) capability, or nullptr when it only
  /// provides per-node virtual state machines. Implementations return
  /// `this` after also deriving from ColumnarAlgorithm; the engine picks
  /// the columnar round loop past ExecutionWorkspace::kFastCutover nodes
  /// and both paths are bit-identical.
  virtual const ColumnarAlgorithm* columnar() const { return nullptr; }

  /// True when the algorithm was constructed with a bound on the network
  /// size (the paper's algorithm needs none; ALOHA/Decay/JS16-style do).
  virtual bool uses_size_bound() const { return false; }

  /// True when the algorithm relies on collision-detection feedback and is
  /// only meaningful on a CD-capable channel.
  virtual bool requires_collision_detection() const { return false; }
};

}  // namespace fcr
