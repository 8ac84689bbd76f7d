// BatchResolver implementation. This translation unit is compiled with
// -O3 -fno-math-errno -ffp-contract=off (plus -march=native when available;
// see src/sinr/CMakeLists.txt): errno-free sqrt lets the compiler vectorize
// the scan passes, and disabling FP contraction keeps every d2/signal value
// bit-identical to the ones channel.cpp computes, whatever the host ISA.
// IEEE requires +, *, /, sqrt to be correctly rounded, so vectorizing them
// never changes a result; only contraction (FMA) or reassociation could,
// and both are off here. The approximate filter below is the ONLY place
// non-reference arithmetic appears, and its answers are used solely when a
// conservative error bound proves the exact comparison would agree.
#include "sinr/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sinr/accumulate.hpp"
#include "util/check.hpp"

namespace fcr {
namespace {

/// Accumulator lanes for the blocked scan loops and listeners per block of
/// the bitmask sweep. Eight doubles fill an AVX-512 register (or two AVX2
/// ones); GCC vectorizes the fixed-trip inner loops where it refuses to
/// vectorize a plain FP reduction.
constexpr std::size_t kLanes = 8;

/// Below this many transmitters the filter's fixed overhead beats its
/// savings; go straight to the exact scan.
constexpr std::size_t kFilterMinTransmitters = 16;

/// Certification margin for the reciprocal-sqrt filter (alpha = 3).
/// fast_rsqrt's measured worst-case relative error over [1e-6, 1e12] is
/// 4.6e-6, so a signal term P*y^3 is off by at most ~1.4e-5 relative;
/// 1e-4 leaves a >6x safety factor that also swallows summation-order
/// rounding and the cancellation in (total - best).
constexpr double kEpsRsqrt = 1e-4;

/// Certification margin when the filter's terms are computed EXACTLY
/// (alpha in {2, 4, 6}: one or two IEEE multiplies and a divide). The only
/// discrepancy vs the canonical pairwise sum is reduction order, bounded
/// by n * 2^-53 relative — 1e-9 covers n up to ~10^6 with headroom.
constexpr double kEpsReassoc = 1e-9;

/// The bit-trick rsqrt needs a normal input; below this, fall back to the
/// exact scan (d2 this small means nodes ~1e-150 apart — never legitimate).
constexpr double kMinNormalD2 = 1e-300;

/// Robertson's 64-bit magic constant: the seed of fast_rsqrt and of its
/// lane form in pass_block.
constexpr std::uint64_t kRsqrtMagic = 0x5FE6EB50C7B537A9ULL;

/// Approximate 1/sqrt(x) for normal positive doubles: the classic
/// magic-constant seed plus two Newton-Raphson steps. Relative error
/// <= ~5e-6; see kEpsRsqrt.
inline double fast_rsqrt(double x) {
  double y = std::bit_cast<double>(kRsqrtMagic -
                                   (std::bit_cast<std::uint64_t>(x) >> 1));
  y = y * (1.5 - 0.5 * x * y * y);
  y = y * (1.5 - 0.5 * x * y * y);
  return y;
}

/// Screening margin of the filter's approximate total power for `kind`.
double screening_eps(AlphaKind kind) {
  return kind == AlphaKind::kThree ? kEpsRsqrt : kEpsReassoc;
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

/// Lane-blocked sum of term(d2[j]) over all transmitters. Approximate by
/// design: the reduction order differs from pairwise_sum, and `term` may
/// itself be approximate (rsqrt). Only feeds the certification filter.
template <typename Term>
double pass_sum(const double* d2, std::size_t n, Term term) {
  double acc[kLanes] = {};
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    // This bound only screens candidates; the screening margin absorbs the
    // reduction-order error (the decisive sums use pairwise_sum).
    // FCRLINT_ALLOW(fp-accumulate): lane-blocked screening-only sum.
    for (std::size_t k = 0; k < kLanes; ++k) acc[k] += term(d2[j + k]);
  }
  double total = 0.0;
  // FCRLINT_ALLOW(fp-accumulate): tail of the same screening-only sum.
  for (; j < n; ++j) total += term(d2[j]);
  // FCRLINT_ALLOW(fp-accumulate): lane fold of the same screening-only sum.
  for (std::size_t k = 0; k < kLanes; ++k) total += acc[k];
  return total;
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

/// Listener-blocked fused filter sweep for the bitmask path: resolves
/// kLanes listeners at once against the whole transmitter set, producing
/// each listener's exact minimum squared distance and its approximate
/// total-power screening sum in ONE pass over the transmitter arrays.
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
/// win, as in pass_argmin). The screening terms are fast_rsqrt's and
/// resolve_plain's expressions, lane by lane; IEEE elementwise operations
/// round exactly like scalar ones. The screening sum's four chains round
/// differently than pass_sum's lane-blocked order, but the certification
/// margins only need |error| <= eps, which both orders satisfy with the
/// same n * 2^-53 bound (see kEpsReassoc). The mask path never needs the
/// argmin INDEX (received bits carry no sender id), so no index lanes are
/// tracked at all.
template <AlphaKind kKind>
void pass_block(const double* __restrict txx, const double* __restrict txy,
                std::size_t t, const Lanes& lx, const Lanes& ly, double p,
                Lanes& mm_out, Lanes& sum_out) {
  const auto step = [&](std::size_t j, Lanes& acc, Lanes& mm) {
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
    mm = x < mm ? x : mm;
  };
  // Four sum chains over the transmitter loop (the tail joins chain 0),
  // folded 0+1+2+3. Any order meets the eps margins; this one keeps every
  // lane's screening sum identical to the sweep's earlier double[8] form
  // (docs/PERF.md §6.3). The minimum is exact in any order and keeps one
  // chain: three more would take registers that the 2- and 4-register
  // lowerings of a Lanes value (AVX2, SSE2) cannot spare.
  Lanes acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  Lanes mm = Lanes{} + std::numeric_limits<double>::infinity();
  std::size_t j = 0;
  for (; j + 4 <= t; j += 4) {
    step(j, acc0, mm);
    step(j + 1, acc1, mm);
    step(j + 2, acc2, mm);
    step(j + 3, acc3, mm);
  }
  for (; j < t; ++j) step(j, acc0, mm);
  mm_out = mm;
  sum_out = acc0 + acc1 + acc2 + acc3;
}

/// The certified filter's verdict on one listener.
enum class Verdict { kDecodes, kSilent, kUnsure };

/// Certification: `mm` is the listener's EXACT minimum squared distance,
/// so sbest is the same double the exact scan computes for the best
/// transmitter. `stotal` approximates the total received power with
/// per-term relative error <= eps, so the exact interference
/// I = S - sbest lies within +-margin of itilde; a verdict is certain only
/// if it holds at BOTH ends of that interval. Degenerate distances and
/// non-finite values are never certain.
Verdict certify(const SinrChannel& channel, double mm, double stotal,
                double eps) {
  if (!(mm >= kMinNormalD2)) return Verdict::kUnsure;
  const double sbest = channel.signal_from_dist_sq(mm);
  if (!std::isfinite(stotal) || !std::isfinite(sbest)) {
    return Verdict::kUnsure;
  }
  const double itilde = stotal - sbest;
  const double margin = eps * (stotal + sbest);
  const SinrParams& prm = channel.params();
  const double ihigh = (itilde > 0.0 ? itilde : 0.0) + margin;
  const double ilow_raw = itilde - margin;
  const double ilow = ilow_raw > 0.0 ? ilow_raw : 0.0;
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
  stats_ = Stats{};
  stats_.listeners = listeners.size();
  if (transmitters.empty()) {
    stats_.unfiltered = listeners.size();
    return;
  }

  tx_ids_.assign(transmitters.begin(), transmitters.end());
  load_positions(dep);
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    out[i] = resolve_plain(dep.position(listeners[i]));
  }
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
  stats_ = Stats{};
  std::fill(received_out.begin(), received_out.end(), std::uint64_t{0});

  // Flat transmitter snapshot straight from the decision words; countr_zero
  // enumerates set bits in ascending id order, matching the id-vector path.
  tx_ids_.clear();
  for (std::size_t w = 0; w < transmit_words.size(); ++w) {
    std::uint64_t bits = transmit_words[w];
    const NodeId base = static_cast<NodeId>(w * 64);
    while (bits != 0) {
      tx_ids_.push_back(base + static_cast<NodeId>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  if (tx_ids_.empty()) {
    for (const std::uint64_t bits : listen_words) {
      stats_.listeners += static_cast<std::size_t>(std::popcount(bits));
    }
    stats_.unfiltered = stats_.listeners;
    return;
  }
  load_positions(dep);

  // Rounds eligible for the certified filter go through the
  // listener-blocked sweep (kLanes listeners per transmitter pass);
  // small or generic-alpha rounds keep the per-listener exact pipeline.
  if (tx_ids_.size() >= kFilterMinTransmitters &&
      channel_.alpha_kind() != AlphaKind::kGeneric) {
    resolve_mask_filtered(dep, listen_words, received_out);
    return;
  }

  for (std::size_t w = 0; w < listen_words.size(); ++w) {
    std::uint64_t bits = listen_words[w];
    std::uint64_t rec = 0;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      ++stats_.listeners;
      if (resolve_plain(dep.position(id)).received()) {
        rec |= std::uint64_t{1} << b;
      }
    }
    received_out[w] = rec;
  }
}

void BatchResolver::resolve_mask_filtered(
    const Deployment& dep, std::span<const std::uint64_t> listen_words,
    std::span<std::uint64_t> received_out) {
  const std::size_t t = tx_ids_.size();
  const double p = channel_.params().power;
  const AlphaKind kind = channel_.alpha_kind();
  const double eps = screening_eps(kind);

  // Listener block staged from the bitmask enumeration: ids visit in the
  // same ascending order as the per-listener loop, so per-listener throws
  // (colocated nodes) fire at the same listener.
  std::size_t word_of[kLanes] = {};
  int bit_of[kLanes] = {};
  Lanes lx = {}, ly = {};
  Lanes mm = {}, stotal = {};
  std::size_t fill = 0;

  auto flush_block = [&]() {
    switch (kind) {
      case AlphaKind::kTwo:
        pass_block<AlphaKind::kTwo>(tx_x_.data(), tx_y_.data(), t, lx, ly, p,
                                    mm, stotal);
        break;
      case AlphaKind::kThree:
        pass_block<AlphaKind::kThree>(tx_x_.data(), tx_y_.data(), t, lx, ly,
                                      p, mm, stotal);
        break;
      case AlphaKind::kFour:
        pass_block<AlphaKind::kFour>(tx_x_.data(), tx_y_.data(), t, lx, ly,
                                     p, mm, stotal);
        break;
      case AlphaKind::kSix:
        pass_block<AlphaKind::kSix>(tx_x_.data(), tx_y_.data(), t, lx, ly, p,
                                    mm, stotal);
        break;
      case AlphaKind::kGeneric:
        FCR_CHECK_MSG(false, "generic alpha has no filtered mask path");
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      FCR_ENSURE_ARG(mm[k] > 0.0,
                     "signal at zero distance is undefined (colocated nodes)");
      bool rec = false;
      switch (certify(channel_, mm[k], stotal[k], eps)) {
        case Verdict::kDecodes:
          ++stats_.certified;
          rec = true;
          break;
        case Verdict::kSilent:
          ++stats_.certified;
          break;
        case Verdict::kUnsure:
          // The per-listener pipeline books this listener itself and
          // reproduces the reference bit exactly.
          rec = resolve_plain(Vec2{lx[k], ly[k]}).received();
          break;
      }
      if (rec) {
        received_out[word_of[k]] |= std::uint64_t{1} << bit_of[k];
      }
    }
    fill = 0;
  };

  for (std::size_t w = 0; w < listen_words.size(); ++w) {
    std::uint64_t bits = listen_words[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto id = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      ++stats_.listeners;
      const Vec2 pos = dep.position(id);
      word_of[fill] = w;
      bit_of[fill] = b;
      lx[fill] = pos.x;
      ly[fill] = pos.y;
      if (++fill == kLanes) flush_block();
    }
  }
  // Ragged tail: fewer than kLanes listeners left — the per-listener
  // pipeline costs the same as padding would and needs no phantom lanes.
  for (std::size_t k = 0; k < fill; ++k) {
    if (resolve_plain(Vec2{lx[k], ly[k]}).received()) {
      received_out[word_of[k]] |= std::uint64_t{1} << bit_of[k];
    }
  }
}

Reception BatchResolver::resolve_plain(Vec2 v) {
  const std::size_t t = tx_ids_.size();
  d2_.resize(t);
  pass_d2(tx_x_.data(), tx_y_.data(), t, v.x, v.y, d2_.data());
  double mm = 0.0;
  const std::size_t best = pass_argmin(d2_.data(), t, mm);
  FCR_ENSURE_ARG(mm > 0.0,
                 "signal at zero distance is undefined (colocated nodes)");

  const AlphaKind kind = channel_.alpha_kind();
  if (t < kFilterMinTransmitters || kind == AlphaKind::kGeneric) {
    ++stats_.unfiltered;
    return resolve_exact(best);
  }

  const double p = channel_.params().power;
  double stotal = 0.0;
  switch (kind) {
    case AlphaKind::kTwo:
      stotal = pass_sum(d2_.data(), t, [p](double x) { return p / x; });
      break;
    case AlphaKind::kThree:
      stotal = pass_sum(d2_.data(), t, [p](double x) {
        const double y = fast_rsqrt(x);
        return p * (y * y * y);
      });
      break;
    case AlphaKind::kFour:
      stotal = pass_sum(d2_.data(), t, [p](double x) { return p / (x * x); });
      break;
    case AlphaKind::kSix:
      stotal =
          pass_sum(d2_.data(), t, [p](double x) { return p / (x * x * x); });
      break;
    case AlphaKind::kGeneric:
      break;  // unreachable (gated above)
  }

  switch (certify(channel_, mm, stotal, screening_eps(kind))) {
    case Verdict::kDecodes:
      ++stats_.certified;
      return Reception{tx_ids_[best]};
    case Verdict::kSilent:
      ++stats_.certified;
      return Reception{};
    case Verdict::kUnsure:
      break;
  }
  ++stats_.exact_fallbacks;
  return resolve_exact(best);
}

Reception BatchResolver::resolve_exact(std::size_t best) {
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
