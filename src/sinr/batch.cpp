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

/// The bit-trick rsqrt needs a normal input; below this, fall back to the
/// exact scan (d2 this small means nodes ~1e-150 apart — never legitimate).
constexpr double kMinNormalD2 = 1e-300;

/// Robertson's 64-bit magic constant: the seed of pass_block's rsqrt.
constexpr std::uint64_t kRsqrtMagic = 0x5FE6EB50C7B537A9ULL;

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
/// against the whole transmitter set, producing each listener's exact
/// minimum squared distance and its approximate total-power screening sum
/// in ONE pass over the transmitter arrays.
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
/// win, as in pass_argmin). The screening terms are approximate (the
/// alpha = 3 rsqrt) or exact up to summation order, and the certification
/// margins only need |error| <= eps (see kEpsRsqrt, kEpsReassoc). No
/// argmin INDEX is tracked: only listeners that decode need a sender, and
/// the id front end looks theirs up afterwards (BatchResolver::nearest).
///
/// Always inlined into the pipeline: GCC 12 otherwise emits the alpha = 3
/// instantiation out of line (nm -C batch.cpp.o shows it), and the sweep
/// measured about 10% slower that way on BM_ResolveMask/4096.
template <AlphaKind kKind>
[[gnu::always_inline]] inline void pass_block(
    const double* __restrict txx, const double* __restrict txy,
    std::size_t t, const Lanes& lx, const Lanes& ly, double p, Lanes& mm_out,
    Lanes& sum_out) {
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
  tx_ids_.assign(transmitters.begin(), transmitters.end());
  load_positions(dep);
  resolve_listeners(dep, listeners, /*senders=*/true,
                    [&out](std::size_t i, NodeId sender) {
                      out[i].sender = sender;
                    });
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
  resolve_listeners(dep, listen_ids_, /*senders=*/false,
                    [this, received_out](std::size_t i, NodeId /*sender*/) {
                      const NodeId id = listen_ids_[i];
                      received_out[id >> 6] |= std::uint64_t{1} << (id & 63);
                    });
}

template <typename Decoded>
void BatchResolver::resolve_listeners(const Deployment& dep,
                                      std::span<const NodeId> listeners,
                                      bool senders, Decoded decoded) {
  stats_ = Stats{};
  stats_.listeners = listeners.size();
  const std::size_t t = tx_ids_.size();
  const AlphaKind kind = channel_.alpha_kind();
  if (t < kFilterMinTransmitters || kind == AlphaKind::kGeneric) {
    stats_.unfiltered = listeners.size();
    if (t == 0) return;
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      const Reception r = exact(dep.position(listeners[i]));
      if (r.received()) decoded(i, r.sender);
    }
    return;
  }

  const double p = channel_.params().power;
  const double eps = screening_eps(kind);
  Lanes lx = {}, ly = {}, mm = {}, stotal = {};
  for (std::size_t base = 0; base < listeners.size(); base += kLanes) {
    // A ragged last block repeats its last listener in the empty lanes,
    // whose verdicts are never read: every listener is screened once.
    const std::size_t fill = std::min(kLanes, listeners.size() - base);
    for (std::size_t k = 0; k < kLanes; ++k) {
      const Vec2 v = dep.position(listeners[base + std::min(k, fill - 1)]);
      lx[k] = v.x;
      ly[k] = v.y;
    }
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
        FCR_CHECK_MSG(false, "generic alpha has no filtered path");
    }
    // Lanes in listener order, so a colocated listener throws at the same
    // listener as in the reference scan.
    for (std::size_t k = 0; k < fill; ++k) {
      FCR_ENSURE_ARG(mm[k] > 0.0,
                     "signal at zero distance is undefined (colocated nodes)");
      const Vec2 v{lx[k], ly[k]};
      switch (certify(channel_, mm[k], stotal[k], eps)) {
        case Verdict::kDecodes:
          ++stats_.certified;
          decoded(base + k, senders ? tx_ids_[nearest(v)] : kInvalidNode);
          break;
        case Verdict::kSilent:
          ++stats_.certified;
          break;
        case Verdict::kUnsure: {
          ++stats_.exact_fallbacks;
          const Reception r = exact(v);
          if (r.received()) decoded(base + k, r.sender);
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
