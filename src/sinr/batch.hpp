// Batched SINR round resolution — the hot path behind the trial engine.
//
// BatchResolver answers the same question as SinrChannel::resolve() and is
// BIT-IDENTICAL to it, but is built for throughput when one round resolves
// many listeners against the same transmitter set:
//
//   * flat transmitter position arrays and per-listener scratch are cached
//     across the round's listener scans (and across rounds — the resolver
//     is meant to live as long as the trial);
//   * a CERTIFIED approximate filter decides most listeners with one
//     vectorized sweep per eight listeners (each listener's exact minimum
//     squared distance plus an approximate total received power, with a
//     reciprocal-sqrt term for alpha = 3). The filter only accepts a
//     decision when the approximation error bound proves the exact
//     comparison would agree; every near-threshold listener falls back to
//     the exact canonical scan, so the OUTPUT is bit-for-bit the reference
//     answer while the typical cost per listener drops about 5x (see
//     docs/PERF.md).
//
// Thread-safety: a BatchResolver owns mutable scratch, so concurrent
// resolve() calls on ONE instance are not allowed. Use one resolver per
// worker (they are cheap); results are identical regardless of how
// listeners are sharded because each listener's answer depends only on its
// own position.
#pragma once

#include <cstddef>
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

  explicit BatchResolver(SinrParams params);
  explicit BatchResolver(SinrChannel channel);

  const SinrChannel& channel() const { return channel_; }

  /// Per-call accounting, reset by every resolve()/resolve_mask(). Every
  /// listener lands in exactly one bucket:
  ///   certified + exact_fallbacks + unfiltered == listeners.
  struct Stats {
    std::size_t listeners = 0;
    /// Decided outright by the certified filter.
    std::size_t certified = 0;
    /// Screened by the filter, then re-resolved by the exact scan because
    /// the margin straddled the threshold or a screening value was
    /// degenerate (non-finite, or a squared distance below the normal
    /// range).
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
  /// Snapshots the positions of tx_ids_ into tx_x_/tx_y_.
  void load_positions(const Deployment& dep);
  /// The pipeline behind both entry points, over the loaded transmitter
  /// snapshot: calls decoded(i, sender) for every listeners[i] that
  /// decodes, in listener order. Filter-eligible rounds screen eight
  /// listeners per pass_block sweep, certify each lane and send unsure
  /// lanes to exact(); other rounds go to exact() directly. `sender` is
  /// the decoded transmitter's id (looked up with nearest() for certified
  /// decodes), or kInvalidNode for a certified decode when `senders` is
  /// false (the bitmask front end needs no id).
  template <typename Decoded>
  void resolve_listeners(const Deployment& dep,
                         std::span<const NodeId> listeners, bool senders,
                         Decoded decoded);
  /// Fills d2_ with listener v's squared distance to every transmitter and
  /// returns the first index at their minimum: the reference's
  /// best-transmitter rule. Throws when v is colocated with a transmitter.
  std::size_t nearest(Vec2 v);
  /// The exact per-listener scan: nearest(), then the reference's
  /// pairwise-summed interference and decodes() predicate.
  Reception exact(Vec2 v);

  SinrChannel channel_;
  Stats stats_;

  // Flat transmitter snapshot for the round being resolved.
  std::vector<NodeId> tx_ids_;
  std::vector<double> tx_x_, tx_y_;
  // resolve_mask's listener ids, enumerated from its words.
  std::vector<NodeId> listen_ids_;

  // Per-listener scratch, reused across listeners and rounds.
  std::vector<double> d2_, sig_, scratch_;
};

}  // namespace fcr
