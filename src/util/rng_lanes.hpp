// Lane-blocked xoshiro256** generation: W = 8 independent per-node streams
// stepped side by side, bit-identical to the scalar `Rng` path.
//
// The virtual engine hands node id the scalar stream rng.split(id); the
// columnar decide kernels need the SAME streams, stepped eight at a time.
// LaneRng stores the per-node xoshiro state as four flat arrays (s0..s3,
// indexed by node id), so the 8 lanes of block b are contiguous at
// [8b, 8b + 8) and step as two 4-wide AVX2 vectors (or a scalar loop on
// the generic target). Every primitive consumes exactly the draws the
// per-node scalar Rng calls it replaces would, so after any number of lane
// rounds every node's stream sits exactly where the virtual node would
// have left it (proven end to end by tests/test_columnar_identity.cpp).
//
// Bit-identity on both dispatch targets: the generic target evaluates the
// same expressions as scalar Rng; the AVX2 target uses provably exact
// transformations of them — `uniform() < p` becomes the comparison of the
// exact integer-to-double conversion of (draw >> 11) against p * 2^53
// (both exact: the conversion via the two-constant trick is exact for
// values < 2^53, and scaling by a power of two is exact), and power-of-two
// `uniform_int(w)` is the single masked draw Lemire's rejection reduces to
// when the threshold is zero. See docs/PERF.md §6 for the proofs.
//
// Padding contract: element-column pointers handed to LaneRng primitives
// (probability, aux) must point at storage with at least padded_count(n)
// valid entries — the engine pads ColumnarState column storage accordingly
// (ExecutionWorkspace::prepare_columns) while the spans keep logical size
// n. Lanes with id >= n ("phantom" tail lanes) are seeded like real ones
// and may or may not advance; their output never reaches a decision bit,
// and no primitive reads column entries beyond padded_count(n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace fcr {

/// Which implementation backs the LaneRng primitives. Both produce
/// identical bits; the choice only affects speed.
enum class LaneDispatch : std::uint8_t {
  kGeneric = 0,  ///< plain u64 scalar loops (any CPU)
  kAvx2 = 1,     ///< 4-wide AVX2 vectors per half-block
};

/// The process-wide dispatch target: resolved once from the
/// FCR_LANE_DISPATCH environment variable ("auto" (default) / "avx2" /
/// "generic") plus a cpuid check, unless a test forced one.
LaneDispatch lane_dispatch();

/// Forces the dispatch target in-process (tests compare both targets
/// without re-exec). Throws if `target` names an ISA the host lacks.
void force_lane_dispatch(LaneDispatch target);

/// Restores env/cpuid dispatch resolution after force_lane_dispatch.
void reset_lane_dispatch();

/// W = 8 per-node xoshiro256** streams in structure-of-arrays layout.
class LaneRng {
 public:
  static constexpr std::size_t kLanes = 8;

  /// Column storage entries required for n nodes (n rounded up to a whole
  /// block, so block loops never touch unowned memory).
  static constexpr std::size_t padded_count(std::size_t n) {
    return (n + kLanes - 1) / kLanes * kLanes;
  }

  /// Seeds lane id from root.split(id) for id in [0, padded_count(n)) —
  /// the exact lineage the engine gives each virtual node.
  void seed(const Rng& root, std::size_t node_count);

  std::size_t node_count() const { return n_; }

  /// One draw per node (ascending id), OR-ing bit id into `decisions` when
  /// uniform() < p — the lane form of Rng::bernoulli(p) per node. Mirrors
  /// scalar bernoulli's clamps exactly: p <= 0 draws nothing and sets
  /// nothing, p >= 1 draws nothing and sets every node's bit.
  void bernoulli_all(double p, std::span<std::uint64_t> decisions);

  /// The fading kernel's pass: every ACTIVE node id with probability[id]
  /// in (0, 1) draws once; bit id is set when the draw succeeds or when
  /// probability[id] >= 1. Inactive nodes neither draw nor transmit.
  /// `probability` must obey the padding contract.
  void bernoulli_active(std::span<const std::uint64_t> active,
                        const double* probability,
                        std::span<std::uint64_t> decisions);

  /// One draw per node: out[id] = base + uniform_int(window) for a
  /// power-of-two window (the backoff epoch redraw; Lemire's threshold is
  /// zero for power-of-two bounds, so this is the single masked raw draw
  /// the scalar path makes). `out` must obey the padding contract.
  void uniform_offsets_pow2(std::uint64_t base, std::uint64_t window,
                            std::uint64_t* out);

  /// One raw 64-bit draw per node into an internal scratch buffer (valid
  /// until the next primitive call). For kernels whose transform of the
  /// draw stays scalar (sift's inverse-CDF transcendentals).
  std::span<const std::uint64_t> raw_all();

 private:
  std::size_t n_ = 0;
  // Per-node xoshiro state words; lane id's state is (s0_[id], s1_[id],
  // s2_[id], s3_[id]). Sized padded_count(n_) by seed().
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
  std::vector<std::uint64_t> raw_;
};

/// Drawless lane pass: OR bit id into `decisions` for every node with
/// column[id] == value (the slot-match step of backoff and sift).
/// `column` must obey the LaneRng padding contract.
void lane_select_equal(const std::uint64_t* column, std::uint64_t value,
                       std::size_t n, std::span<std::uint64_t> decisions);

}  // namespace fcr
