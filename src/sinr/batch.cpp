// BatchResolver implementation. This translation unit is compiled with
// -O3 -fno-math-errno -ffp-contract=off (plus -march=native when available;
// see src/sinr/CMakeLists.txt): errno-free sqrt lets the compiler vectorize
// the scan passes, and disabling FP contraction keeps every d2/signal value
// bit-identical to the ones channel.cpp computes, whatever the host ISA.
// IEEE requires +, *, /, sqrt to be correctly rounded, so vectorizing them
// never changes a result; only contraction (FMA) or reassociation could,
// and both are off here. The approximate filter and the screen's far-field
// bounds below are the ONLY places non-reference arithmetic appears, and
// their answers are used solely when a conservative error bound proves the
// exact comparison would agree.
#include "sinr/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "sinr/accumulate.hpp"
#include "util/check.hpp"

namespace fcr {
namespace {

/// Listeners per block of the filter sweep, and accumulator lanes of
/// pass_argmin. Eight doubles fill an AVX-512 register (or two AVX2 ones).
constexpr std::size_t kLanes = 8;

/// Certification margin for the reciprocal-sqrt filter (alpha = 3).
/// pass_block's rsqrt (magic-constant seed plus two Newton steps) has a
/// measured worst-case relative error of 4.6e-6 over [1e-6, 1e12], so a
/// signal term P*y^3 is off by at most ~1.4e-5 relative; 1e-4 leaves a
/// >6x safety factor that also swallows summation-order rounding and the
/// cancellation in (total - best).
constexpr double kEpsRsqrt = 1e-4;

/// Certification margin when the filter's terms are computed EXACTLY
/// (alpha in {2, 4, 6}: one or two IEEE multiplies and a divide). The only
/// discrepancy vs the canonical pairwise sum is reduction order, bounded
/// by n * 2^-53 relative — 1e-9 covers n up to ~10^6 with headroom.
constexpr double kEpsReassoc = 1e-9;

/// Relative slack on the screen's far-field bounds. Every far term is
/// bounded with the reference's own signal expression at a box distance
/// computed with the reference's own d2 expression, and correctly rounded
/// operations are monotone, so each bound holds exactly for the
/// reference's rounded terms; only the sums round (ours over 64 tiles, the
/// reference's pairwise sum over the round), by far less than this.
constexpr double kFarSlack = 1e-9;

/// The bit-trick rsqrt needs a normal input; below this, fall back to the
/// exact scan (d2 this small means nodes ~1e-150 apart — never legitimate).
constexpr double kMinNormalD2 = 1e-300;

/// Robertson's 64-bit magic constant: the seed of pass_block's rsqrt.
constexpr std::uint64_t kRsqrtMagic = 0x5FE6EB50C7B537A9ULL;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Screening margin of the filter's approximate total power for `kind`.
constexpr double screening_eps(AlphaKind kind) {
  return kind == AlphaKind::kThree ? kEpsRsqrt : kEpsReassoc;
}

/// SinrChannel::signal_from_dist_sq's expression for a closed-form alpha,
/// without its argument check (d2 = +inf gives 0).
template <AlphaKind kKind>
inline double signal_of(double p, double d2) {
  if constexpr (kKind == AlphaKind::kTwo) {
    return p / d2;
  } else if constexpr (kKind == AlphaKind::kThree) {
    return p / (d2 * std::sqrt(d2));
  } else if constexpr (kKind == AlphaKind::kFour) {
    return p / (d2 * d2);
  } else {
    static_assert(kKind == AlphaKind::kSix, "no closed-form signal");
    return p / (d2 * d2 * d2);
  }
}

/// Squared distance from (vx, vy) to every transmitter. Same expression
/// as the reference scan in channel.cpp — with contraction off these are
/// the exact doubles the reference computes.
void pass_d2(const double* xs, const double* ys, std::size_t n, double vx,
             double vy, double* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const double dx = xs[j] - vx;
    const double dy = ys[j] - vy;
    out[j] = dx * dx + dy * dy;
  }
}

/// Index of the FIRST minimum of d2 (the canonical best-transmitter rule).
/// Lane-blocked: a vectorizable min reduction, then one equality scan for
/// the first attaining index — the branchy fused argmin does not vectorize
/// and costs ~5x more. With NaN distances no index matches; the caller's
/// exact fallback then reproduces the reference behavior.
std::size_t pass_argmin(const double* d2, std::size_t n, double& min_out) {
  double lane[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) {
    lane[k] = std::numeric_limits<double>::infinity();
  }
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const double x = d2[j + k];
      lane[k] = x < lane[k] ? x : lane[k];
    }
  }
  double mm = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < kLanes; ++k) mm = lane[k] < mm ? lane[k] : mm;
  for (; j < n; ++j) mm = d2[j] < mm ? d2[j] : mm;
  min_out = mm;
  for (std::size_t i = 0; i < n; ++i) {
    if (d2[i] == mm) return i;
  }
  return 0;
}

/// kLanes listeners as one GCC/Clang vector value (the vector_size
/// extension): arithmetic and comparisons are elementwise, a scalar
/// operand is broadcast to every lane, and a cast between same-size vector
/// types reinterprets the bits. Values of these types are only ever locals
/// or passed by reference: passing a 64-byte vector by value has a
/// different calling convention with and without AVX-512 (GCC's -Wpsabi).
typedef double Lanes __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::uint64_t LaneBits
    __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));

/// Listener-blocked fused filter sweep: resolves kLanes listeners at once
/// against t transmitters, folding into each listener's running minimum
/// squared distance `mm_io`, its approximate total-power screening sum
/// `sum_io` and (kSenders only) the span index `idx_io` of its strongest
/// transmitter, in ONE pass over the transmitter arrays. The filter sweep
/// calls it once over every transmitter; the screen calls it once per row
/// of a listener tile's 3x3 neighbourhood.
///
/// The vector dimension is LISTENERS: each transmitter is broadcast and
/// updates all eight lanes, so every transmitter load is amortized over
/// eight listeners and no lane depends on another. The block is one
/// explicit Lanes value because GCC, given the same loop nest over
/// double[8] arrays, vectorized across the unrolled transmitters instead
/// and permuted the accumulators between registers on every step
/// (2.2-2.6x slower on AVX-512 for alpha = 3, see docs/PERF.md §6.3).
///
/// Each lane computes d2 with pass_d2's contraction-free expression, so
/// the minimum is the exact double the reference scan finds (the minimum
/// of a fixed non-NaN set is fold-order independent; NaN distances never
/// win, as in pass_argmin). The sender lane keeps the span index `txs[j]`
/// of the first transmitter visited at that minimum, or with kTies the
/// smallest span index among the transmitters at it: the reference's
/// first-index rule when the visiting order is not span order and a tie
/// at the minimum can decode. The screening terms are approximate (the
/// alpha = 3 rsqrt) or exact up to summation order, and the certification
/// margins only need |error| <= eps (see kEpsRsqrt, kEpsReassoc).
///
/// Always inlined into the pipeline: GCC 12 otherwise emits the alpha = 3
/// instantiation out of line (nm -C batch.cpp.o shows it), and the sweep
/// measured about 10% slower that way on BM_ResolveMask/4096.
template <AlphaKind kKind, bool kSenders, bool kTies = false>
[[gnu::always_inline]] inline void pass_block(
    const double* __restrict txx, const double* __restrict txy,
    const double* __restrict txs, std::size_t t, const Lanes& lx,
    const Lanes& ly, double p, Lanes& mm_io, Lanes& sum_io, Lanes& idx_io) {
  const auto step = [&](std::size_t j, Lanes& acc, Lanes& mm, Lanes& idx) {
    const Lanes dx = lx - txx[j];
    const Lanes dy = ly - txy[j];
    const Lanes x = dx * dx + dy * dy;
    Lanes term = {};
    if constexpr (kKind == AlphaKind::kTwo) {
      term = p / x;
    } else if constexpr (kKind == AlphaKind::kThree) {
      Lanes y = (Lanes)(kRsqrtMagic - ((LaneBits)x >> 1));
      y = y * (1.5 - 0.5 * x * y * y);
      y = y * (1.5 - 0.5 * x * y * y);
      term = p * (y * y * y);
    } else if constexpr (kKind == AlphaKind::kFour) {
      term = p / (x * x);
    } else {
      static_assert(kKind == AlphaKind::kSix, "no closed-form lane term");
      term = p / (x * x * x);
    }
    // The screening margin absorbs this sum's reduction-order error (the
    // decisive sums use pairwise_sum).
    // FCRLINT_ALLOW(fp-accumulate): screening-only sum.
    acc += term;
    if constexpr (kTies) {
      const Lanes s = Lanes{} + txs[j];
      idx = (x < mm) | ((x == mm) & (s < idx)) ? s : idx;
    } else if constexpr (kSenders) {
      idx = x < mm ? Lanes{} + txs[j] : idx;
    }
    mm = x < mm ? x : mm;
  };
  // Four sum chains over the transmitter loop (the tail joins chain 0),
  // folded 0+1+2+3. Any order meets the eps margins; this one keeps every
  // lane's screening sum identical to the sweep's earlier double[8] form
  // (docs/PERF.md §6.3). The minimum is exact in any order and keeps one
  // chain: three more would take registers that the 2- and 4-register
  // lowerings of a Lanes value (AVX2, SSE2) cannot spare.
  Lanes acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  Lanes mm = mm_io;
  Lanes idx = idx_io;
  std::size_t j = 0;
  for (; j + 4 <= t; j += 4) {
    step(j, acc0, mm, idx);
    step(j + 1, acc1, mm, idx);
    step(j + 2, acc2, mm, idx);
    step(j + 3, acc3, mm, idx);
  }
  for (; j < t; ++j) step(j, acc0, mm, idx);
  mm_io = mm;
  idx_io = idx;
  sum_io += acc0 + acc1 + acc2 + acc3;
}

/// Horizontal sum and minimum of kTiles values, eight lanes at a time (a
/// fixed order, so the result does not depend on the compiler).
template <std::size_t kN>
void fold_tiles(const double (&lo)[kN], const double (&hi)[kN],
                const double (&d2)[kN], double& lo_sum, double& hi_sum,
                double& d2_min) {
  static_assert(kN % kLanes == 0, "tile arrays fill whole lane blocks");
  Lanes vlo = {}, vhi = {}, vmin = Lanes{} + kInf;
  for (std::size_t k = 0; k < kN; k += kLanes) {
    Lanes a, b, c;
    std::memcpy(&a, lo + k, sizeof a);
    std::memcpy(&b, hi + k, sizeof b);
    std::memcpy(&c, d2 + k, sizeof c);
    // FCRLINT_ALLOW(fp-accumulate): far-field bound, kFarSlack covers it.
    vlo += a;
    // FCRLINT_ALLOW(fp-accumulate): far-field bound, kFarSlack covers it.
    vhi += b;
    vmin = c < vmin ? c : vmin;
  }
  lo_sum = 0.0;
  hi_sum = 0.0;
  d2_min = kInf;
  for (std::size_t k = 0; k < kLanes; ++k) {
    // FCRLINT_ALLOW(fp-accumulate): far-field bound, kFarSlack covers it.
    lo_sum += vlo[k];
    // FCRLINT_ALLOW(fp-accumulate): far-field bound, kFarSlack covers it.
    hi_sum += vhi[k];
    d2_min = vmin[k] < d2_min ? vmin[k] : d2_min;
  }
}

/// The certified filter's verdict on one listener.
enum class Verdict { kDecodes, kSilent, kUnsure };

/// Certification: `mm` is the listener's EXACT minimum squared distance,
/// so sbest is the same double the exact scan computes for the best
/// transmitter. `stotal` approximates the received power of the swept
/// transmitters with per-term relative error <= eps, and the transmitters
/// not swept (the screen's far field; none for the filter sweep) add
/// between far_lo and far_hi, so the exact interference I lies within
/// [itilde - margin + far_lo, itilde + margin + far_hi]; a verdict is
/// certain only if it holds at BOTH ends of that interval. Degenerate
/// distances and non-finite values are never certain.
Verdict certify(const SinrChannel& channel, double mm, double stotal,
                double eps, double far_lo = 0.0, double far_hi = 0.0) {
  if (!(mm >= kMinNormalD2)) return Verdict::kUnsure;
  const double sbest = channel.signal_from_dist_sq(mm);
  if (!std::isfinite(stotal) || !std::isfinite(sbest) ||
      !std::isfinite(far_hi)) {
    return Verdict::kUnsure;
  }
  const double itilde = stotal - sbest;
  const double margin = eps * (stotal + sbest);
  const SinrParams& prm = channel.params();
  const double ihigh = (itilde > 0.0 ? itilde : 0.0) + margin + far_hi;
  const double ilow_raw = itilde - margin;
  const double ilow = (ilow_raw > 0.0 ? ilow_raw : 0.0) + far_lo;
  if (sbest >= prm.beta * (prm.noise + ihigh)) return Verdict::kDecodes;
  if (sbest < prm.beta * (prm.noise + ilow)) return Verdict::kSilent;
  return Verdict::kUnsure;
}

}  // namespace

BatchResolver::BatchResolver(SinrParams params)
    : BatchResolver(SinrChannel(params)) {}

BatchResolver::BatchResolver(SinrChannel channel)
    : channel_(std::move(channel)) {}

void BatchResolver::load_positions(const Deployment& dep) {
  const std::size_t t = tx_ids_.size();
  tx_x_.resize(t);
  tx_y_.resize(t);
  for (std::size_t j = 0; j < t; ++j) {
    const Vec2 p = dep.position(tx_ids_[j]);
    tx_x_[j] = p.x;
    tx_y_[j] = p.y;
  }
}

void BatchResolver::resolve(const Deployment& dep,
                            std::span<const NodeId> transmitters,
                            std::span<const NodeId> listeners,
                            std::vector<Reception>& out) {
  out.assign(listeners.size(), Reception{});
  tx_ids_.assign(transmitters.begin(), transmitters.end());
  load_positions(dep);
  tx_span_.resize(tx_ids_.size());
  for (std::size_t j = 0; j < tx_span_.size(); ++j) {
    tx_span_[j] = static_cast<double>(j);
  }
  resolve_listeners</*kSenders=*/true>(
      dep, listeners,
      [&out](std::size_t i, NodeId sender) { out[i].sender = sender; });
}

std::vector<Reception> BatchResolver::resolve(
    const Deployment& dep, std::span<const NodeId> transmitters,
    std::span<const NodeId> listeners) {
  std::vector<Reception> out;
  resolve(dep, transmitters, listeners, out);
  return out;
}

void BatchResolver::resolve_mask(const Deployment& dep,
                                 std::span<const std::uint64_t> transmit_words,
                                 std::span<const std::uint64_t> listen_words,
                                 std::span<std::uint64_t> received_out) {
  FCR_ENSURE_ARG(received_out.size() == listen_words.size(),
                 "received mask word count mismatch: " << received_out.size()
                                                       << " vs "
                                                       << listen_words.size());
  std::fill(received_out.begin(), received_out.end(), std::uint64_t{0});
  // countr_zero enumerates set bits in ascending id order, so these are
  // the id vectors resolve() would get for the same round.
  const auto ids_of = [](std::span<const std::uint64_t> words,
                         std::vector<NodeId>& ids) {
    ids.clear();
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      const NodeId base = static_cast<NodeId>(w * 64);
      while (bits != 0) {
        ids.push_back(base + static_cast<NodeId>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  };
  ids_of(transmit_words, tx_ids_);
  ids_of(listen_words, listen_ids_);
  load_positions(dep);
  resolve_listeners</*kSenders=*/false>(
      dep, listen_ids_, [this, received_out](std::size_t i, NodeId) {
        const NodeId id = listen_ids_[i];
        received_out[id >> 6] |= std::uint64_t{1} << (id & 63);
      });
}

template <bool kSenders, typename Decoded>
void BatchResolver::resolve_listeners(const Deployment& dep,
                                      std::span<const NodeId> listeners,
                                      Decoded decoded) {
  stats_ = Stats{};
  stats_.listeners = listeners.size();
  const std::size_t t = tx_ids_.size();
  if (t >= kFilterMinTransmitters) {
    switch (channel_.alpha_kind()) {
      case AlphaKind::kTwo:
        return filter<AlphaKind::kTwo, kSenders>(dep, listeners, decoded);
      case AlphaKind::kThree:
        return filter<AlphaKind::kThree, kSenders>(dep, listeners, decoded);
      case AlphaKind::kFour:
        return filter<AlphaKind::kFour, kSenders>(dep, listeners, decoded);
      case AlphaKind::kSix:
        return filter<AlphaKind::kSix, kSenders>(dep, listeners, decoded);
      case AlphaKind::kGeneric:
        break;
    }
  }
  stats_.unfiltered = listeners.size();
  if (t == 0) return;
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    const Reception r = exact(dep.position(listeners[i]));
    if (r.received()) decoded(i, r.sender);
  }
}

template <AlphaKind kKind, bool kSenders, typename Decoded>
void BatchResolver::filter(const Deployment& dep,
                           std::span<const NodeId> listeners,
                           Decoded decoded) {
  const std::size_t t = tx_ids_.size();
  const std::size_t l = listeners.size();
  listener_x_.resize(l);
  listener_y_.resize(l);
  for (std::size_t i = 0; i < l; ++i) {
    const Vec2 v = dep.position(listeners[i]);
    listener_x_[i] = v.x;
    listener_y_[i] = v.y;
  }
  pending_.clear();
  const SinrParams& prm = channel_.params();
  if (t < kScreenMinTransmitters) {
    for (std::size_t i = 0; i < l; ++i) {
      pending_.push_back(static_cast<std::uint32_t>(i));
    }
  } else if (kSenders && !(prm.beta > 1.0 && prm.noise > 0.0)) {
    // The screen visits transmitters tile by tile, not in span order. A
    // tie at a listener's minimum gives it interference at least its best
    // signal, so with beta > 1 and noise > 0 a decoding listener has one
    // strongest transmitter and the first one visited is the sender;
    // otherwise the sender lanes must compare span indices.
    screen<kKind, kSenders, /*kTies=*/kSenders>(decoded);
  } else {
    screen<kKind, kSenders, false>(decoded);
  }

  const double p = prm.power;
  const double eps = screening_eps(kKind);
  const double* txs = kSenders ? tx_span_.data() : nullptr;
  Lanes lx = {}, ly = {};
  for (std::size_t base = 0; base < pending_.size(); base += kLanes) {
    // A ragged last block repeats its last listener in the empty lanes,
    // whose verdicts are never read: every listener is swept once.
    const std::size_t fill = std::min(kLanes, pending_.size() - base);
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::uint32_t i = pending_[base + std::min(k, fill - 1)];
      lx[k] = listener_x_[i];
      ly[k] = listener_y_[i];
    }
    Lanes mm = Lanes{} + kInf, stotal = {}, idx = {};
    pass_block<kKind, kSenders>(tx_x_.data(), tx_y_.data(), txs, t, lx, ly,
                                p, mm, stotal, idx);
    for (std::size_t k = 0; k < fill; ++k) {
      const std::uint32_t i = pending_[base + k];
      FCR_ENSURE_ARG(mm[k] > 0.0,
                     "signal at zero distance is undefined (colocated nodes)");
      switch (certify(channel_, mm[k], stotal[k], eps)) {
        case Verdict::kDecodes:
          ++stats_.certified;
          decoded(i, kSenders ? tx_ids_[static_cast<std::size_t>(idx[k])]
                              : kInvalidNode);
          break;
        case Verdict::kSilent:
          ++stats_.certified;
          break;
        case Verdict::kUnsure: {
          ++stats_.exact_fallbacks;
          const Reception r = exact(Vec2{lx[k], ly[k]});
          if (r.received()) decoded(i, r.sender);
          break;
        }
      }
    }
  }
}

template <AlphaKind kKind, bool kSenders, bool kTies, typename Decoded>
void BatchResolver::screen(Decoded decoded) {
  const std::size_t t = tx_ids_.size();
  const std::size_t l = listener_x_.size();

  // Square tiles over the round's bounding box: kTileAxis across its
  // longer side. Any point-to-tile map is sound, because the bounds below
  // use each tile's actual transmitter box and each block's actual
  // listener box; this one only has to keep neighbours together.
  double x0 = kInf, y0 = kInf, x1 = -kInf, y1 = -kInf;
  const auto extend = [&](const std::vector<double>& xs,
                          const std::vector<double>& ys) {
    for (std::size_t j = 0; j < xs.size(); ++j) {
      x0 = std::min(x0, xs[j]);
      x1 = std::max(x1, xs[j]);
      y0 = std::min(y0, ys[j]);
      y1 = std::max(y1, ys[j]);
    }
  };
  extend(tx_x_, tx_y_);
  extend(listener_x_, listener_y_);
  // A zero, subnormal or overflowing extent puts every point in tile 0.
  const double inv =
      static_cast<double>(kTileAxis) / std::max(x1 - x0, y1 - y0);
  const double scale = std::isfinite(inv) ? inv : 0.0;
  const auto tile_of = [&](double x, double y) {
    const auto axis = [scale](double v, double v0) {
      return std::min(kTileAxis - 1,
                      static_cast<std::size_t>((v - v0) * scale));
    };
    return static_cast<std::uint8_t>(axis(y, y0) * kTileAxis + axis(x, x0));
  };

  // Counting sorts by row-major tile, stable, so each tile keeps span
  // (and listener) order and each row of a 3x3 neighbourhood is one
  // contiguous run.
  const auto count_tiles = [&](const std::vector<double>& xs,
                               const std::vector<double>& ys,
                               std::vector<std::uint8_t>& tiles,
                               std::array<std::uint32_t, kTiles + 1>& start) {
    tiles.resize(xs.size());
    start.fill(0);
    for (std::size_t j = 0; j < xs.size(); ++j) {
      tiles[j] = tile_of(xs[j], ys[j]);
      ++start[tiles[j] + 1u];
    }
    for (std::size_t k = 0; k < kTiles; ++k) start[k + 1] += start[k];
  };
  count_tiles(tx_x_, tx_y_, tx_tile_, tx_start_);
  count_tiles(listener_x_, listener_y_, listener_tile_, listener_start_);

  std::array<std::uint32_t, kTiles> cursor;
  std::copy(tx_start_.begin(), tx_start_.end() - 1, cursor.begin());
  tile_x_.resize(t);
  tile_y_.resize(t);
  tile_span_.resize(t);
  box_x0_.fill(kInf);
  box_x1_.fill(-kInf);
  box_y0_.fill(kInf);
  box_y1_.fill(-kInf);
  for (std::size_t j = 0; j < t; ++j) {
    const std::uint8_t k = tx_tile_[j];
    const std::uint32_t at = cursor[k]++;
    const double x = tx_x_[j], y = tx_y_[j];
    tile_x_[at] = x;
    tile_y_[at] = y;
    if (kSenders) tile_span_[at] = static_cast<double>(j);
    box_x0_[k] = std::min(box_x0_[k], x);
    box_x1_[k] = std::max(box_x1_[k], x);
    box_y0_[k] = std::min(box_y0_[k], y);
    box_y1_[k] = std::max(box_y1_[k], y);
  }
  for (std::size_t k = 0; k < kTiles; ++k) {
    box_count_[k] = static_cast<double>(tx_start_[k + 1] - tx_start_[k]);
  }
  std::copy(listener_start_.begin(), listener_start_.end() - 1,
            cursor.begin());
  tile_listeners_.resize(l);
  for (std::size_t i = 0; i < l; ++i) {
    tile_listeners_[cursor[listener_tile_[i]]++] =
        static_cast<std::uint32_t>(i);
  }

  const double p = channel_.params().power;
  const double eps = screening_eps(kKind);
  for (std::size_t tile = 0; tile < kTiles; ++tile) {
    const std::uint32_t first = listener_start_[tile];
    const std::uint32_t last = listener_start_[tile + 1];
    if (first == last) continue;
    // The near field is the 3x3 neighbourhood: one run of sorted
    // transmitters per row. An infinite pad on its tiles drops them from
    // the far field.
    const std::size_t row = tile / kTileAxis, col = tile % kTileAxis;
    const std::size_t col_lo = col > 0 ? col - 1 : 0;
    const std::size_t col_hi = std::min(col + 1, kTileAxis - 1);
    std::array<std::uint32_t, 3> run_begin{}, run_end{};
    std::size_t runs = 0;
    alignas(64) double pad[kTiles] = {};
    for (std::size_t r = row > 0 ? row - 1 : 0;
         r <= std::min(row + 1, kTileAxis - 1); ++r) {
      run_begin[runs] = tx_start_[r * kTileAxis + col_lo];
      run_end[runs++] = tx_start_[r * kTileAxis + col_hi + 1];
      for (std::size_t c = col_lo; c <= col_hi; ++c) {
        pad[r * kTileAxis + c] = kInf;
      }
    }
    Lanes lx = {}, ly = {};
    for (std::uint32_t base = first; base < last; base += kLanes) {
      // A ragged last block repeats its last listener, as in the sweep.
      const std::size_t fill = std::min<std::size_t>(kLanes, last - base);
      double bx0 = kInf, bx1 = -kInf, by0 = kInf, by1 = -kInf;
      for (std::size_t k = 0; k < kLanes; ++k) {
        const std::uint32_t i = tile_listeners_[base + std::min(k, fill - 1)];
        lx[k] = listener_x_[i];
        ly[k] = listener_y_[i];
        bx0 = std::min(bx0, lx[k]);
        bx1 = std::max(bx1, lx[k]);
        by0 = std::min(by0, ly[k]);
        by1 = std::max(by1, ly[k]);
      }
      Lanes mm = Lanes{} + kInf, stotal = {}, idx = {};
      for (std::size_t r = 0; r < runs; ++r) {
        const std::size_t b = run_begin[r];
        pass_block<kKind, kSenders, kTies>(
            tile_x_.data() + b, tile_y_.data() + b,
            kSenders ? tile_span_.data() + b : nullptr, run_end[r] - b, lx, ly,
            p, mm, stotal, idx);
      }
      // Far field: the smallest and largest separations of the block's box
      // from a tile's transmitter box bound every pair's d2 between them.
      // They use the reference's own d2 expression, and correctly rounded
      // operations are monotone, so count * signal at each bound brackets
      // the tile's rounded reference terms. An empty tile's inverted box
      // gives infinite separations and contributes nothing.
      alignas(64) double lo[kTiles], hi[kTiles], gap[kTiles];
      for (std::size_t k = 0; k < kTiles; ++k) {
        const double gx =
            std::max(std::max(box_x0_[k] - bx1, bx0 - box_x1_[k]), 0.0);
        const double gy =
            std::max(std::max(box_y0_[k] - by1, by0 - box_y1_[k]), 0.0);
        const double hx = std::max(box_x1_[k] - bx0, bx1 - box_x0_[k]);
        const double hy = std::max(box_y1_[k] - by0, by1 - box_y0_[k]);
        const double dmin2 = gx * gx + gy * gy + pad[k];
        const double dmax2 = hx * hx + hy * hy + pad[k];
        gap[k] = dmin2;
        lo[k] = box_count_[k] * signal_of<kKind>(p, dmax2);
        hi[k] = box_count_[k] * signal_of<kKind>(p, dmin2);
      }
      double far_lo = 0.0, far_hi = 0.0, far_min = kInf;
      fold_tiles(lo, hi, gap, far_lo, far_hi, far_min);
      far_lo *= 1.0 - kFarSlack;
      far_hi *= 1.0 + kFarSlack;
      for (std::size_t k = 0; k < fill; ++k) {
        const std::uint32_t i = tile_listeners_[base + k];
        FCR_ENSURE_ARG(
            mm[k] > 0.0,
            "signal at zero distance is undefined (colocated nodes)");
        // Only a near-field minimum below every far tile's reach is the
        // round's: then sbest is exact, and no far transmitter ties it.
        const Verdict verdict =
            mm[k] < far_min
                ? certify(channel_, mm[k], stotal[k], eps, far_lo, far_hi)
                : Verdict::kUnsure;
        switch (verdict) {
          case Verdict::kDecodes:
            ++stats_.screened;
            decoded(i, kSenders ? tx_ids_[static_cast<std::size_t>(idx[k])]
                                : kInvalidNode);
            break;
          case Verdict::kSilent:
            ++stats_.screened;
            break;
          case Verdict::kUnsure:
            pending_.push_back(i);
            break;
        }
      }
    }
  }
}

std::size_t BatchResolver::nearest(Vec2 v) {
  const std::size_t t = tx_ids_.size();
  d2_.resize(t);
  pass_d2(tx_x_.data(), tx_y_.data(), t, v.x, v.y, d2_.data());
  double mm = 0.0;
  const std::size_t best = pass_argmin(d2_.data(), t, mm);
  FCR_ENSURE_ARG(mm > 0.0,
                 "signal at zero distance is undefined (colocated nodes)");
  return best;
}

Reception BatchResolver::exact(Vec2 v) {
  const std::size_t best = nearest(v);
  const std::size_t t = tx_ids_.size();
  sig_.resize(t);
  for (std::size_t j = 0; j < t; ++j) {
    sig_[j] = channel_.signal_from_dist_sq(d2_[j]);
  }
  const double interference = pairwise_sum_excluding(sig_, best, scratch_);
  if (channel_.decodes(sig_[best], interference)) {
    return Reception{tx_ids_[best]};
  }
  return Reception{};
}

}  // namespace fcr
