// Batched SINR round resolution — the hot path behind the trial engine.
//
// BatchResolver answers the same question as SinrChannel::resolve() and is
// BIT-IDENTICAL to it, but is built for throughput when one round resolves
// many listeners against the same transmitter set:
//
//   * flat transmitter position arrays and per-listener scratch are cached
//     across the round's listener scans (and across rounds — the resolver
//     is meant to live as long as the trial);
//   * heavy rounds (kScreenMinTransmitters transmitters and up) first run a
//     CERTIFIED near/far screen: transmitters and listeners are counting-
//     sorted into an 8x8 tile grid, each block of eight listeners sweeps
//     only the transmitters of its 3x3 tile neighbourhood, and every other
//     tile is bounded from both sides by count * P / d^alpha at its nearest
//     and farthest point. A listener is decided there only when its exact
//     near-field minimum is closer than every far tile can be (so the
//     strongest transmitter is exact) and the verdict holds at both ends of
//     the bounds;
//   * every other listener of a closed-form-alpha round goes through a
//     CERTIFIED approximate filter: one vectorized sweep per eight
//     listeners over all transmitters (each listener's exact minimum
//     squared distance, the first transmitter at it, and an approximate
//     total received power, with a reciprocal-sqrt term for alpha = 3).
//     The filter only accepts a decision when the approximation error bound
//     proves the exact comparison would agree; every near-threshold
//     listener falls back to the exact canonical scan, so the OUTPUT is
//     bit-for-bit the reference answer (see docs/PERF.md §2).
//
// Thread-safety: a BatchResolver owns mutable scratch, so concurrent
// resolve() calls on ONE instance are not allowed. Use one resolver per
// worker (they are cheap); results are identical regardless of how
// listeners are sharded because each listener's answer depends only on its
// own position.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "deploy/deployment.hpp"
#include "sinr/channel.hpp"

namespace fcr {

/// Reusable batched resolver bound to one channel parameter set.
class BatchResolver {
 public:
  /// Rounds with fewer transmitters than this skip the certified filter
  /// and resolve every listener with the exact scan: below it the
  /// filter's fixed per-block cost outweighs its savings.
  static constexpr std::size_t kFilterMinTransmitters = 16;

  /// Rounds with at least this many transmitters (and a closed-form alpha)
  /// run the near/far tile screen before the filter sweep. Below it the
  /// tile bookkeeping costs more than the far transmitters it skips
  /// (measured table: docs/PERF.md §2.1).
  static constexpr std::size_t kScreenMinTransmitters = 160;

  explicit BatchResolver(SinrParams params);
  explicit BatchResolver(SinrChannel channel);

  const SinrChannel& channel() const { return channel_; }

  /// Per-call accounting, reset by every resolve()/resolve_mask(). Every
  /// listener lands in exactly one bucket:
  ///   screened + certified + exact_fallbacks + unfiltered == listeners.
  struct Stats {
    std::size_t listeners = 0;
    /// Decided outright by the near/far tile screen.
    std::size_t screened = 0;
    /// Decided outright by the certified filter sweep.
    std::size_t certified = 0;
    /// Swept by the filter, then re-resolved by the exact scan because the
    /// margin straddled the threshold or a screening value was degenerate
    /// (non-finite, or a squared distance below the normal range).
    std::size_t exact_fallbacks = 0;
    /// Resolved by the exact scan without screening, because the round is
    /// not filter-eligible: fewer than kFilterMinTransmitters
    /// transmitters, a generic alpha, or no transmitters at all.
    std::size_t unfiltered = 0;
  };
  const Stats& last_stats() const { return stats_; }

  /// Resolves one round into `out` (resized to listeners.size()). The
  /// result is bit-identical to channel().resolve(dep, transmitters,
  /// listeners).
  /// Same preconditions as SinrChannel::resolve; a listener colocated with
  /// a transmitter throws std::invalid_argument.
  void resolve(const Deployment& dep, std::span<const NodeId> transmitters,
               std::span<const NodeId> listeners, std::vector<Reception>& out);

  /// Convenience overload returning a fresh vector.
  std::vector<Reception> resolve(const Deployment& dep,
                                 std::span<const NodeId> transmitters,
                                 std::span<const NodeId> listeners);

  /// Bitmask round resolution for the columnar engine: transmitters and
  /// listeners arrive as id-bitmask words (bit id of word id/64 set; the
  /// two masks must be disjoint), receptions leave as the received bitmask
  /// written over `received_out` (same word count as the inputs) — no
  /// Reception records and no sender lookups. Decision bits are identical
  /// to resolve() on the equivalent ascending id vectors: word-skip
  /// enumeration visits ids in ascending order and feeds the same
  /// pipeline.
  void resolve_mask(const Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::span<std::uint64_t> received_out);

 private:
  /// Tiles per axis of the screen's grid.
  static constexpr std::size_t kTileAxis = 8;
  static constexpr std::size_t kTiles = kTileAxis * kTileAxis;

  /// Snapshots the positions of tx_ids_ into tx_x_/tx_y_.
  void load_positions(const Deployment& dep);
  /// The pipeline behind both entry points, over the loaded transmitter
  /// snapshot: calls decoded(i, sender) for every listeners[i] that
  /// decodes (in no particular order). Filter-eligible rounds go to
  /// filter(); other rounds go to exact() directly. `sender` is the decoded
  /// transmitter's id, or kInvalidNode for a screened or certified decode
  /// when kSenders is false (the bitmask front end needs no id).
  template <bool kSenders, typename Decoded>
  void resolve_listeners(const Deployment& dep,
                         std::span<const NodeId> listeners, Decoded decoded);
  /// Screen (heavy rounds only), then the filter sweep over the listeners
  /// the screen left undecided: eight listeners per pass_block sweep, each
  /// lane certified, unsure lanes sent to exact().
  template <AlphaKind kKind, bool kSenders, typename Decoded>
  void filter(const Deployment& dep, std::span<const NodeId> listeners,
              Decoded decoded);
  /// The near/far tile screen over the loaded listener positions: decides
  /// what it can certify and appends every other listener index to
  /// pending_. kTies: a decoding listener may tie at its minimum, so its
  /// sender is the smallest span index there.
  template <AlphaKind kKind, bool kSenders, bool kTies, typename Decoded>
  void screen(Decoded decoded);
  /// Fills d2_ with listener v's squared distance to every transmitter and
  /// returns the first index at their minimum: the reference's
  /// best-transmitter rule. Throws when v is colocated with a transmitter.
  std::size_t nearest(Vec2 v);
  /// The exact per-listener scan: nearest(), then the reference's
  /// pairwise-summed interference and decodes() predicate.
  Reception exact(Vec2 v);

  SinrChannel channel_;
  Stats stats_;

  // Flat transmitter snapshot for the round being resolved, and (id front
  // end only) each transmitter's span index as a double, for the sweep's
  // sender lanes.
  std::vector<NodeId> tx_ids_;
  std::vector<double> tx_x_, tx_y_, tx_span_;
  // resolve_mask's listener ids, enumerated from its words.
  std::vector<NodeId> listen_ids_;
  // The round's listener positions, and the listener indices the filter
  // sweep resolves.
  std::vector<double> listener_x_, listener_y_;
  std::vector<std::uint32_t> pending_;

  // Screen scratch: transmitters counting-sorted by row-major tile (span
  // order kept within a tile), listener indices likewise, every point's
  // tile, and per tile the first sorted transmitter and listener, the
  // transmitter count and the transmitters' bounding box.
  std::vector<double> tile_x_, tile_y_, tile_span_;
  std::vector<std::uint32_t> tile_listeners_;
  std::vector<std::uint8_t> tx_tile_, listener_tile_;
  std::array<std::uint32_t, kTiles + 1> tx_start_{}, listener_start_{};
  std::array<double, kTiles> box_x0_{}, box_x1_{}, box_y0_{}, box_y1_{},
      box_count_{};

  // Per-listener scratch, reused across listeners and rounds.
  std::vector<double> d2_, sig_, scratch_;
};

}  // namespace fcr
