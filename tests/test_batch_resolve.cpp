// BatchResolver equivalence suite: both batched entry points — the
// id-vector resolve() and the bitmask resolve_mask() — and the
// SinrChannelAdapter in front of them must return BIT-IDENTICAL decisions
// (and, where reported, senders) to SinrChannel::resolve across path-loss
// exponents (fast paths and the generic pow path), deployment shapes,
// round sizes at the edges of the listener-blocked sweep, of the
// adapter's small-round cutover and of the near/far tile screen, shuffled
// transmitter orders, exact distance ties (also between transmitters in
// different screen tiles, and points on tile borders), near-threshold
// listeners that defeat the certified filter and the screen, and repeated
// scratch-reusing calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "deploy/generators.hpp"
#include "fabric/spec.hpp"
#include "geom/point.hpp"
#include "point_sets.hpp"
#include "sim/channel_adapter.hpp"
#include "sinr/batch.hpp"
#include "sinr/channel.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

Deployment shaped_deployment(int shape, std::size_t n, Rng& rng) {
  switch (shape % 3) {
    case 0:
      return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
          .normalized();
    case 1:
      return two_clusters(n, 300.0, 5.0, rng).normalized();
    default:
      return exponential_chain(n, 4096.0, rng).normalized();
  }
}

void split_nodes(const Deployment& dep, double p, Rng& rng,
                 std::vector<NodeId>& tx, std::vector<NodeId>& listeners) {
  tx.clear();
  listeners.clear();
  for (NodeId i = 0; i < dep.size(); ++i) {
    (rng.bernoulli(p) ? tx : listeners).push_back(i);
  }
}

/// Fisher-Yates shuffle driven by the test's own stream.
void shuffle(std::vector<NodeId>& ids, Rng& rng) {
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.uniform_int(i)]);
  }
}

/// Exactly `tx_count` transmitters and `listen_count` listeners drawn
/// without replacement, each set in ascending id order (the order the
/// bitmask path enumerates them in).
void split_sized(const Deployment& dep, std::size_t tx_count,
                 std::size_t listen_count, Rng& rng,
                 std::vector<NodeId>& tx, std::vector<NodeId>& listeners) {
  std::vector<NodeId> ids(dep.size());
  for (NodeId i = 0; i < dep.size(); ++i) ids[i] = i;
  shuffle(ids, rng);
  std::vector<bool> is_tx(dep.size(), false), is_listener(dep.size(), false);
  for (std::size_t i = 0; i < tx_count; ++i) is_tx[ids[i]] = true;
  for (std::size_t i = tx_count; i < tx_count + listen_count; ++i) {
    is_listener[ids[i]] = true;
  }
  tx.clear();
  listeners.clear();
  for (NodeId i = 0; i < dep.size(); ++i) {
    if (is_tx[i]) tx.push_back(i);
    if (is_listener[i]) listeners.push_back(i);
  }
}

/// Id-bitmask words over n nodes (bit id of word id/64).
std::vector<std::uint64_t> to_words(const std::vector<NodeId>& ids,
                                    std::size_t n) {
  std::vector<std::uint64_t> words((n + 63) / 64, 0);
  for (const NodeId id : ids) words[id / 64] |= std::uint64_t{1} << (id % 64);
  return words;
}

/// The deployment fcrsim draws for `kind` (uniform, disk, clusters, chain,
/// ring, multi-scale) at n nodes.
Deployment kind_deployment(const std::string& kind, std::size_t n, Rng& rng) {
  fabric::SweepSpec spec;
  spec.deployment = kind;
  spec.n = n;
  return fabric::make_factories(spec).deploy(rng);
}

void expect_stats_partition(const BatchResolver::Stats& stats,
                            std::size_t listeners, std::size_t transmitters,
                            bool filtered, const std::string& where) {
  EXPECT_EQ(stats.listeners, listeners) << where;
  EXPECT_EQ(stats.screened + stats.certified + stats.exact_fallbacks +
                stats.unfiltered,
            stats.listeners)
      << where;
  if (filtered) {
    EXPECT_EQ(stats.unfiltered, 0u) << where;
  } else {
    EXPECT_EQ(stats.unfiltered, listeners) << where;
  }
  if (!filtered || transmitters < BatchResolver::kScreenMinTransmitters) {
    EXPECT_EQ(stats.screened, 0u) << where;
  }
}

/// Resolves one round through both BatchResolver entry points and a
/// SinrChannelAdapter and checks every listener against the reference
/// SinrChannel::resolve, plus the Stats partition of each resolver call.
/// resolve() and the adapter see `tx` in the given order; resolve_mask()
/// enumerates ascending ids, so its reference resolves the ascending set
/// (interference sums follow transmitter order).
void expect_matches_reference(const Deployment& dep,
                              const SinrChannel& channel,
                              BatchResolver& resolver,
                              const std::vector<NodeId>& tx,
                              const std::vector<NodeId>& listeners,
                              const std::string& where) {
  const bool filtered =
      tx.size() >= 16 && channel.alpha_kind() != AlphaKind::kGeneric;
  const auto reference = channel.resolve(dep, tx, listeners);

  const auto batched = resolver.resolve(dep, tx, listeners);
  ASSERT_EQ(batched.size(), reference.size()) << where;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batched[i].sender, reference[i].sender)
        << where << " resolve listener " << listeners[i];
  }
  expect_stats_partition(resolver.last_stats(), listeners.size(), tx.size(),
                         filtered, where + " resolve");

  const SinrChannelAdapter adapter(channel);
  std::vector<Feedback> feedback(listeners.size());
  adapter.resolve(dep, tx, listeners, feedback);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(feedback[i].received, reference[i].received())
        << where << " adapter listener " << listeners[i];
    EXPECT_EQ(feedback[i].sender, reference[i].sender)
        << where << " adapter listener " << listeners[i];
  }

  std::vector<NodeId> ascending = tx;
  std::sort(ascending.begin(), ascending.end());
  const auto mask_reference = ascending == tx
                                  ? reference
                                  : channel.resolve(dep, ascending, listeners);
  const auto listen_words = to_words(listeners, dep.size());
  // Pre-filled with ones: resolve_mask must overwrite every word.
  std::vector<std::uint64_t> received(listen_words.size(), ~std::uint64_t{0});
  resolver.resolve_mask(dep, to_words(tx, dep.size()), listen_words,
                        received);
  for (std::size_t i = 0; i < mask_reference.size(); ++i) {
    const NodeId id = listeners[i];
    const bool bit = ((received[id / 64] >> (id % 64)) & 1u) != 0;
    EXPECT_EQ(bit, mask_reference[i].received())
        << where << " resolve_mask listener " << id;
  }
  for (std::size_t w = 0; w < received.size(); ++w) {
    EXPECT_EQ(received[w] & ~listen_words[w], 0u)
        << where << " received bit outside the listen mask, word " << w;
  }
  expect_stats_partition(resolver.last_stats(), listeners.size(), tx.size(),
                         filtered, where + " resolve_mask");
}

TEST(BatchResolve, BitIdenticalAcrossAlphasAndShapes) {
  // alpha 2.5 exercises the generic-pow (always-exact) path; 3 the rsqrt
  // filter; 2/4/6 the exact-term filters. Besides a random split, each
  // deployment runs rounds sized at the edges of the listener-blocked
  // sweep: 15/16/17 transmitters straddle the filter's minimum (and the
  // adapter's small-round cutover), transmitter counts cover every
  // residue mod 4 (the sweep's chain unroll), and listener counts leave
  // ragged blocks of 1-7. Each sized round runs again with its
  // transmitter span shuffled, so senders must follow span order.
  const std::pair<std::size_t, std::size_t> sized_rounds[] = {
      {15, 37}, {16, 8}, {17, 23}, {18, 9}, {19, 100}, {73, 95}, {130, 61}};
  for (const double alpha : {2.0, 2.5, 3.0, 4.0, 6.0}) {
    Rng rng(1000 + static_cast<std::uint64_t>(alpha * 10.0));
    for (int shape = 0; shape < 6; ++shape) {
      Rng trial_rng = rng.split(static_cast<std::uint64_t>(shape));
      Rng shuffle_rng = rng.split(100 + static_cast<std::uint64_t>(shape));
      const Deployment dep = shaped_deployment(shape, 240, trial_rng);
      const SinrParams params =
          SinrParams::for_longest_link(alpha, 1.5, 1e-9, dep.max_link());
      const SinrChannel channel(params);
      BatchResolver resolver(params);
      const std::string where =
          "alpha " + std::to_string(alpha) + " shape " + std::to_string(shape);

      std::vector<NodeId> tx, listeners;
      split_nodes(dep, 0.3, trial_rng, tx, listeners);
      expect_matches_reference(dep, channel, resolver, tx, listeners,
                               where + " random split");
      for (const auto& [tx_count, listen_count] : sized_rounds) {
        split_sized(dep, tx_count, listen_count, trial_rng, tx, listeners);
        const std::string round = where + " tx " + std::to_string(tx_count) +
                                  " listeners " + std::to_string(listen_count);
        expect_matches_reference(dep, channel, resolver, tx, listeners, round);
        shuffle(tx, shuffle_rng);
        expect_matches_reference(dep, channel, resolver, tx, listeners,
                                 round + " shuffled");
      }
    }

    // An exact lattice with a transmitter on every fourth row and column:
    // most listeners tie exactly between two or four nearest transmitters,
    // and beta < 1 lets tied listeners decode, so a decoded sender must be
    // the FIRST tied transmitter in span order.
    const Deployment grid(point_sets::lattice(16, 16, 1.0));
    const SinrParams params =
        SinrParams::for_longest_link(alpha, 0.25, 1e-9, grid.max_link());
    const SinrChannel channel(params);
    BatchResolver resolver(params);
    std::vector<NodeId> tx, listeners, tied;
    for (NodeId id = 0; id < grid.size(); ++id) {
      const NodeId row = id / 16, col = id % 16;
      (row % 4 == 0 && col % 4 == 0 ? tx : listeners).push_back(id);
      if (row % 4 == 0 && col % 4 == 2) tied.push_back(id);
    }
    const std::string where = "alpha " + std::to_string(alpha) + " lattice";
    std::size_t tied_decodes = 0;
    for (const Reception& r : channel.resolve(grid, tx, tied)) {
      if (r.received()) ++tied_decodes;
    }
    EXPECT_GT(tied_decodes, 0u) << where;
    expect_matches_reference(grid, channel, resolver, tx, listeners, where);
    shuffle(tx, rng);
    expect_matches_reference(grid, channel, resolver, tx, listeners,
                             where + " shuffled");
  }
}

TEST(BatchResolve, FilterCertifiesTheBulkOfListeners) {
  // The perf claim is hollow if everything falls back to the exact scan:
  // on a uniform workload with alpha = 3 the certified filter must decide
  // nearly every listener (near-threshold listeners are rare), and in a
  // round heavy enough for the near/far screen the screen must decide
  // nearly every listener on its own.
  Rng rng(77);
  const Deployment dep = uniform_square(512, 2.0 * std::sqrt(512.0), rng)
                             .normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  BatchResolver resolver(params);
  std::vector<NodeId> tx, listeners;
  split_nodes(dep, 0.2, rng, tx, listeners);
  ASSERT_LT(tx.size(), BatchResolver::kScreenMinTransmitters);
  (void)resolver.resolve(dep, tx, listeners);
  const auto& stats = resolver.last_stats();
  EXPECT_EQ(stats.listeners, listeners.size());
  EXPECT_GE(stats.certified * 10, stats.listeners * 9)
      << "certified " << stats.certified << " of " << stats.listeners;

  const Deployment big = uniform_square(4096, 2.0 * std::sqrt(4096.0), rng)
                             .normalized();
  BatchResolver big_resolver(
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, big.max_link()));
  split_nodes(big, 0.2, rng, tx, listeners);
  ASSERT_GE(tx.size(), BatchResolver::kScreenMinTransmitters);
  (void)big_resolver.resolve(big, tx, listeners);
  const auto& big_stats = big_resolver.last_stats();
  EXPECT_EQ(big_stats.listeners, listeners.size());
  EXPECT_GE(big_stats.screened * 10, big_stats.listeners * 9)
      << "screened " << big_stats.screened << " of " << big_stats.listeners;
}

TEST(BatchResolve, ScreenedRoundsMatchTheReferenceOnEveryDeploymentKind) {
  // Rounds at and above the screen's cutover, and one just below it, on
  // every deployment kind fcrsim draws (ring at n <= 3000), for the
  // generic alpha 2.5 and every closed-form alpha; each again with its
  // transmitter span shuffled, so screened senders must follow span
  // order. Above the cutover the screen must decide some listeners, or
  // this test would not reach it.
  const std::size_t cut = BatchResolver::kScreenMinTransmitters;
  for (const std::string kind :
       {"uniform", "disk", "clusters", "chain", "ring", "multi-scale"}) {
    for (const double alpha : {2.0, 2.5, 3.0, 4.0, 6.0}) {
      Rng rng(3000 + static_cast<std::uint64_t>(alpha * 10.0));
      Rng shuffle_rng = rng.split(1);
      const Deployment dep = kind_deployment(kind, 5 * cut + 200, rng);
      const SinrParams params =
          SinrParams::for_longest_link(alpha, 1.5, 1e-9, dep.max_link());
      const SinrChannel channel(params);
      BatchResolver resolver(params);
      std::string where = kind;
      where.append(" alpha ").append(std::to_string(alpha));
      const std::pair<std::size_t, std::size_t> rounds[] = {
          {cut + 157, 4 * cut}, {cut, 4 * cut}, {cut - 1, 4 * cut}};
      for (const auto& [tx_count, listen_count] : rounds) {
        std::vector<NodeId> tx, listeners;
        split_sized(dep, tx_count, listen_count, rng, tx, listeners);
        std::string round = where;
        round.append(" tx ").append(std::to_string(tx_count));
        for (int pass = 0; pass < 2; ++pass) {
          expect_matches_reference(dep, channel, resolver, tx, listeners,
                                   round);
          if (tx_count >= cut && channel.alpha_kind() != AlphaKind::kGeneric) {
            EXPECT_GT(resolver.last_stats().screened, 0u) << round;
          }
          shuffle(tx, shuffle_rng);
          round.append(" shuffled");
        }
      }
    }
  }
}

TEST(BatchResolve, ScreenBreaksTiesAcrossTilesByFirstIndex) {
  // Exact lattices with a transmitter on every other row and column:
  // every listener ties exactly between two or four nearest transmitters,
  // and beta = 0.1 lets tied listeners decode, so a decoded sender must be
  // the FIRST tied transmitter in span order (beta = 1.5 decodes no tie,
  // and the screen takes its faster first-visited rule there). On the
  // 36 x 36 lattice
  // (unit spacing) the tile edges, at multiples of 35/8, fall between
  // transmitter columns 4k and 4k + 2, so ties straddle tiles; on the
  // 33 x 33 lattice (spacing 1/4, extent 8) every tile edge is an integer
  // and carries a row or column of points and transmitters. Each round
  // runs with ascending and with shuffled transmitter spans.
  const std::pair<std::size_t, double> lattices[] = {{36, 1.0}, {33, 0.25}};
  const std::pair<double, double> kLatticeChannels[] = {
      {2.0, 0.1}, {3.0, 0.1}, {4.0, 0.1}, {6.0, 0.1}, {3.0, 1.5}, {6.0, 1.5}};
  for (const auto& [side, spacing] : lattices) {
    const Deployment grid(point_sets::lattice(side, side, spacing));
    std::vector<NodeId> tx, listeners;
    for (NodeId id = 0; id < grid.size(); ++id) {
      const NodeId row = id / static_cast<NodeId>(side);
      const NodeId col = id % static_cast<NodeId>(side);
      (row % 2 == 0 && col % 2 == 0 ? tx : listeners).push_back(id);
    }
    ASSERT_GE(tx.size(), BatchResolver::kScreenMinTransmitters);
    for (const auto& [alpha, beta] : kLatticeChannels) {
      const SinrParams params =
          SinrParams::for_longest_link(alpha, beta, 1e-9, grid.max_link());
      const SinrChannel channel(params);
      BatchResolver resolver(params);
      std::string where = "lattice ";
      where.append(std::to_string(side)).append(" alpha ");
      where.append(std::to_string(alpha)).append(" beta ");
      where.append(std::to_string(beta));
      std::size_t decodes = 0;
      for (const Reception& r : channel.resolve(grid, tx, listeners)) {
        if (r.received()) ++decodes;
      }
      if (beta < 1.0) {
        EXPECT_GT(decodes, 0u) << where;
      }
      Rng rng(side * 100 + static_cast<std::uint64_t>(alpha * beta * 10.0));
      std::vector<NodeId> span = tx;
      for (int pass = 0; pass < 4; ++pass) {
        expect_matches_reference(grid, channel, resolver, span, listeners,
                                 where + " pass " + std::to_string(pass));
        EXPECT_GT(resolver.last_stats().screened, listeners.size() / 2)
            << where;
        shuffle(span, rng);
      }
    }
  }
}

TEST(BatchResolve, ScreenDefersListenersWhoseNearestTransmitterIsFar) {
  // The round's bounding box is [0, 8]^2, so the screen's tiles are unit
  // squares. Listener A = (2.99, 0.5) sits in tile column 2; its only
  // near-field transmitter N = (1.5, 1.9) is 2.04 away, while F = (4, 0.5),
  // two columns over and so in the far field, is 1.01 away and is the
  // transmitter A decodes. The other transmitters are a 13 x 13 lattice in
  // the opposite corner. A's near-field minimum is not the round's, so the
  // screen must leave A to the sweep: deciding it from N would call it
  // silent.
  std::vector<Vec2> points = {{2.99, 0.5}, {0.0, 0.0}, {1.5, 1.9}, {4.0, 0.5}};
  for (int r = 0; r < 13; ++r) {
    for (int c = 0; c < 13; ++c) {
      points.push_back({7.25 + 0.0625 * c, 7.25 + 0.0625 * r});
    }
  }
  const Deployment dep(points);
  const std::vector<NodeId> listeners = {0, 1};
  std::vector<NodeId> tx;
  for (NodeId id = 2; id < dep.size(); ++id) tx.push_back(id);
  ASSERT_GE(tx.size(), BatchResolver::kScreenMinTransmitters);
  Rng rng(91);
  for (const double alpha : {3.0, 4.0, 6.0}) {
    const SinrParams params =
        SinrParams::for_longest_link(alpha, 1.5, 1e-9, dep.max_link());
    const SinrChannel channel(params);
    BatchResolver resolver(params);
    const std::string where = "alpha " + std::to_string(alpha);
    ASSERT_EQ(channel.resolve(dep, tx, listeners)[0].sender, NodeId{3})
        << where;
    expect_matches_reference(dep, channel, resolver, tx, listeners, where);
    EXPECT_EQ(resolver.last_stats().screened, 1u) << where;
    shuffle(tx, rng);
    expect_matches_reference(dep, channel, resolver, tx, listeners,
                             where + " shuffled");
  }
}

TEST(BatchResolve, NearThresholdListenersFallBackBitIdentically) {
  // Every listener sits within 1e-12 relative of the decoding threshold,
  // closer than any certification margin (1e-9 for the exact-term
  // filters, 1e-4 for rsqrt), so every lane of the blocked sweep — two
  // full blocks and a padded last block of three — must fall back to the
  // exact scan and still land on the reference bit, through both entry
  // points. Listeners alternate between the decoding and the silent side
  // of the threshold, so a lane-to-bit mix-up shows as a flipped bit.
  constexpr std::size_t kTx = 20;
  constexpr std::size_t kListeners = 19;
  Rng rng(2024);
  std::vector<Vec2> positions;
  for (std::size_t i = 0; i < kTx; ++i) {
    positions.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  }
  const Deployment tx_only(positions);
  std::vector<NodeId> tx;
  for (NodeId i = 0; i < kTx; ++i) tx.push_back(i);

  for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
    const std::string where = "alpha " + std::to_string(alpha);
    const SinrParams params =
        SinrParams::for_longest_link(alpha, 1.5, 1e-9, tx_only.max_link());
    const SinrChannel channel(params);
    const auto sinr_at = [&](NodeId u, Vec2 q) {
      return channel.signal_from_dist_sq(dist_sq(tx_only.position(u), q)) /
             (params.noise + channel.interference_at(tx_only, q, tx, u));
    };

    // Listener u lies on the segment from transmitter u towards its
    // nearest other transmitter w, where u stays the nearest transmitter.
    // The SINR falls from unbounded next to u to at most 1 < beta at the
    // midpoint; bisect the crossing down to adjacent doubles.
    std::vector<Vec2> all = positions;
    for (NodeId u = 0; u < kListeners; ++u) {
      const Vec2 a = tx_only.position(u);
      NodeId w = u == 0 ? 1 : 0;
      for (NodeId v = 0; v < kTx; ++v) {
        if (v != u && dist_sq(a, tx_only.position(v)) <
                          dist_sq(a, tx_only.position(w))) {
          w = v;
        }
      }
      const Vec2 step = tx_only.position(w) - a;
      double lo = 1e-6, hi = 0.5;  // decodes at lo, silent at hi
      ASSERT_GE(sinr_at(u, a + lo * step), params.beta) << where;
      ASSERT_LT(sinr_at(u, a + hi * step), params.beta) << where;
      for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi) break;
        (sinr_at(u, a + mid * step) >= params.beta ? lo : hi) = mid;
      }
      const Vec2 q = a + (u % 2 == 0 ? lo : hi) * step;
      ASSERT_LT(std::abs(sinr_at(u, q) / params.beta - 1.0), 1e-12)
          << where << " listener " << u;
      all.push_back(q);
    }
    const Deployment dep(all);
    std::vector<NodeId> listeners;
    for (NodeId i = kTx; i < dep.size(); ++i) listeners.push_back(i);

    const auto reference = channel.resolve(dep, tx, listeners);
    std::size_t decoding = 0;
    for (const Reception& r : reference) {
      if (r.received()) ++decoding;
    }
    EXPECT_GT(decoding, 0u) << where;
    EXPECT_LT(decoding, listeners.size()) << where;

    BatchResolver resolver(params);
    (void)resolver.resolve(dep, tx, listeners);
    EXPECT_EQ(resolver.last_stats().exact_fallbacks, kListeners)
        << where << " resolve";
    expect_matches_reference(dep, channel, resolver, tx, listeners, where);
    // The last call was resolve_mask: every listener was screened in a
    // filter-eligible round and none could be certified.
    EXPECT_EQ(resolver.last_stats().certified, 0u) << where;
    EXPECT_EQ(resolver.last_stats().exact_fallbacks, kListeners) << where;
  }
}

TEST(BatchResolve, NearThresholdListenersInAScreenedRoundReachTheExactScan) {
  // A round heavy enough for the screen, whose listeners are a uniform
  // crowd plus 19 listeners within 1e-12 relative of the decoding
  // threshold (placed by bisection as in the test above, against every
  // transmitter of the round). Neither the screen's bounds nor the
  // sweep's margins can decide those 19, so they must reach the exact
  // scan and land on the reference bit, while the screen still decides
  // most of the crowd.
  const std::size_t kTx = BatchResolver::kScreenMinTransmitters + 40;
  constexpr std::size_t kCrowd = 600;
  constexpr std::size_t kNear = 19;
  Rng rng(4048);
  std::vector<Vec2> positions;
  for (std::size_t i = 0; i < kTx; ++i) {
    positions.push_back({rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
  }
  const Deployment tx_only(positions);
  std::vector<NodeId> tx;
  for (NodeId i = 0; i < kTx; ++i) tx.push_back(i);

  for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
    const std::string where = "alpha " + std::to_string(alpha);
    const SinrParams params =
        SinrParams::for_longest_link(alpha, 1.5, 1e-9, tx_only.max_link());
    const SinrChannel channel(params);
    const auto sinr_at = [&](NodeId u, Vec2 q) {
      return channel.signal_from_dist_sq(dist_sq(tx_only.position(u), q)) /
             (params.noise + channel.interference_at(tx_only, q, tx, u));
    };
    std::vector<Vec2> all = positions;
    for (std::size_t i = 0; i < kCrowd; ++i) {
      all.push_back({rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
    }
    for (NodeId u = 0; u < kNear; ++u) {
      const Vec2 a = tx_only.position(u);
      NodeId w = u == 0 ? 1 : 0;
      for (NodeId v = 0; v < kTx; ++v) {
        if (v != u && dist_sq(a, tx_only.position(v)) <
                          dist_sq(a, tx_only.position(w))) {
          w = v;
        }
      }
      const Vec2 step = tx_only.position(w) - a;
      double lo = 1e-6, hi = 0.5;  // decodes at lo, silent at hi
      ASSERT_GE(sinr_at(u, a + lo * step), params.beta) << where;
      ASSERT_LT(sinr_at(u, a + hi * step), params.beta) << where;
      for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi) break;
        (sinr_at(u, a + mid * step) >= params.beta ? lo : hi) = mid;
      }
      const Vec2 q = a + (u % 2 == 0 ? lo : hi) * step;
      ASSERT_LT(std::abs(sinr_at(u, q) / params.beta - 1.0), 1e-12)
          << where << " listener " << u;
      all.push_back(q);
    }
    const Deployment dep(all);
    std::vector<NodeId> listeners;
    for (NodeId i = kTx; i < dep.size(); ++i) listeners.push_back(i);

    BatchResolver resolver(params);
    for (int pass = 0; pass < 2; ++pass) {
      const auto reference = channel.resolve(dep, tx, listeners);
      const auto batched = resolver.resolve(dep, tx, listeners);
      const BatchResolver::Stats stats = resolver.last_stats();
      EXPECT_GE(stats.exact_fallbacks, kNear) << where;
      EXPECT_GT(stats.screened, kCrowd / 2) << where;
      std::size_t near_decodes = 0;
      for (std::size_t i = kCrowd; i < listeners.size(); ++i) {
        EXPECT_EQ(batched[i].sender, reference[i].sender)
            << where << " near-threshold listener " << listeners[i];
        if (reference[i].received()) ++near_decodes;
      }
      EXPECT_GT(near_decodes, 0u) << where;
      EXPECT_LT(near_decodes, kNear) << where;
      expect_matches_reference(dep, channel, resolver, tx, listeners, where);
      EXPECT_GE(resolver.last_stats().exact_fallbacks, kNear) << where;
      shuffle(tx, rng);
    }
  }
}

TEST(BatchResolve, ScratchReuseAcrossRoundsStaysBitIdentical) {
  // One resolver across many rounds with shrinking transmitter sets (the
  // trial-engine usage pattern), alternating both entry points: every
  // round must still match a fresh reference resolution exactly. The
  // later rounds walk the transmitter count down through the filter's
  // minimum and every residue mod 4, with ragged listener blocks.
  Rng rng(42);
  const Deployment dep =
      uniform_square(300, 2.0 * std::sqrt(300.0), rng).normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  const SinrChannel channel(params);
  BatchResolver resolver(params);

  std::vector<NodeId> tx, listeners;
  for (int round = 0; round < 12; ++round) {
    split_nodes(dep, 0.35 / (1 + round % 4), rng, tx, listeners);
    if (tx.empty()) continue;
    expect_matches_reference(dep, channel, resolver, tx, listeners,
                             "round " + std::to_string(round));
  }
  const std::pair<std::size_t, std::size_t> shrinking[] = {
      {97, 203}, {42, 150}, {19, 121}, {18, 77}, {17, 45},
      {16, 31},  {15, 29},  {9, 13},   {2, 7},   {1, 3}};
  for (const auto& [tx_count, listen_count] : shrinking) {
    split_sized(dep, tx_count, listen_count, rng, tx, listeners);
    expect_matches_reference(dep, channel, resolver, tx, listeners,
                             "tx " + std::to_string(tx_count));
  }
}

TEST(BatchResolve, EmptyTransmittersResolveToSilence) {
  Rng rng(7);
  const Deployment dep = uniform_square(20, 6.0, rng).normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  BatchResolver resolver(params);
  const std::vector<NodeId> none;
  const std::vector<NodeId> listeners = {0, 1, 2};
  const auto out = resolver.resolve(dep, none, listeners);
  ASSERT_EQ(out.size(), 3u);
  for (const Reception& r : out) EXPECT_FALSE(r.received());
  expect_stats_partition(resolver.last_stats(), 3, 0, false, "resolve");

  std::vector<std::uint64_t> received(1, ~std::uint64_t{0});
  resolver.resolve_mask(dep, to_words(none, dep.size()),
                        to_words(listeners, dep.size()), received);
  EXPECT_EQ(received[0], 0u);
  expect_stats_partition(resolver.last_stats(), 3, 0, false, "resolve_mask");
}

TEST(BatchResolve, ColocatedListenerThrowsLikeTheReference) {
  // An id appearing as both transmitter and listener is a zero-distance
  // link; every path must reject it the same way (the documented single
  // colocation behavior). The mask cases put the shared id in a full
  // sweep block, in the padded last block, and in a round too small to
  // filter.
  Rng rng(8);
  const Deployment dep = uniform_square(40, 8.0, rng).normalized();
  const SinrParams params =
      SinrParams::for_longest_link(3.0, 1.5, 1e-9, dep.max_link());
  const SinrChannel channel(params);
  BatchResolver resolver(params);
  std::vector<NodeId> tx, listeners;
  for (NodeId i = 0; i < 20; ++i) tx.push_back(i);
  for (NodeId i = 19; i < dep.size(); ++i) listeners.push_back(i);  // 19 overlaps
  EXPECT_THROW((void)channel.resolve(dep, tx, listeners),
               std::invalid_argument);
  EXPECT_THROW((void)resolver.resolve(dep, tx, listeners),
               std::invalid_argument);

  // Transmitters [tx_begin, tx_end), listeners [listen_begin, listen_end):
  // shared id 19 in lane 0 of the first sweep block; shared id 20 in the
  // padded last block after two full ones; shared id 9 in a 10-transmitter
  // round below the filter's minimum.
  const struct {
    NodeId tx_begin, tx_end, listen_begin, listen_end;
  } mask_cases[] = {{0, 20, 19, 40}, {20, 40, 0, 21}, {0, 10, 9, 40}};
  for (const auto& c : mask_cases) {
    tx.clear();
    listeners.clear();
    for (NodeId i = c.tx_begin; i < c.tx_end; ++i) tx.push_back(i);
    for (NodeId i = c.listen_begin; i < c.listen_end; ++i) {
      listeners.push_back(i);
    }
    std::vector<std::uint64_t> received(1);
    EXPECT_THROW(resolver.resolve_mask(dep, to_words(tx, dep.size()),
                                       to_words(listeners, dep.size()),
                                       received),
                 std::invalid_argument)
        << "transmitters [" << c.tx_begin << ", " << c.tx_end
        << "), listeners [" << c.listen_begin << ", " << c.listen_end << ")";
  }
}

}  // namespace
}  // namespace fcr
