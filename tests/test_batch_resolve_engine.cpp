// Engine-level differential check of the batched resolver: full fading
// executions at n in {2048, 4096} (the sizes whose heavy rounds reach the
// near/far tile screen, which ColumnarIdentity's n <= 127 never does) run
// through a forwarding adapter that resolves every word round with the
// real SinrChannelAdapter and compares each received bit with
// SinrChannel::resolve on the same transmitter and listener sets.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/fading_cr.hpp"
#include "fabric/spec.hpp"
#include "sim/channel_adapter.hpp"
#include "sim/runner.hpp"
#include "sim/workspace.hpp"
#include "sinr/batch.hpp"
#include "util/rng.hpp"

namespace fcr {
namespace {

/// Ascending ids of the set bits of `words`.
std::vector<NodeId> ids_of(std::span<const std::uint64_t> words) {
  std::vector<NodeId> ids;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      ids.push_back(static_cast<NodeId>(w * 64) +
                    static_cast<NodeId>(std::countr_zero(bits)));
    }
  }
  return ids;
}

/// Forwards every round to `inner`, then checks each resolve_mask round
/// against the reference scan. A standalone BatchResolver replays the
/// round only to count the listeners the screen decided.
class CheckingAdapter final : public ChannelAdapter {
 public:
  explicit CheckingAdapter(const SinrChannelAdapter& inner)
      : inner_(inner), replay_(inner.channel()) {}

  std::string name() const override { return "sinr-checked"; }
  bool resolves_listeners_independently() const override { return true; }
  bool supports_mask_resolve() const override { return true; }

  void resolve(const Deployment& dep, std::span<const NodeId> transmitters,
               std::span<const NodeId> listeners,
               std::span<Feedback> out) const override {
    inner_.resolve(dep, transmitters, listeners, out);
  }

  void resolve_mask(const Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override {
    inner_.resolve_mask(dep, transmit_words, listen_words, transmitter_count,
                        received);
    const std::vector<NodeId> tx = ids_of(transmit_words);
    const std::vector<NodeId> listeners = ids_of(listen_words);
    ++rounds;
    const auto reference = inner_.channel().resolve(dep, tx, listeners);
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      const NodeId id = listeners[i];
      const bool bit = ((received[id / 64] >> (id % 64)) & 1u) != 0;
      if (bit != reference[i].received()) ++mismatches;
    }
    for (std::size_t w = 0; w < received.size(); ++w) {
      if ((received[w] & ~listen_words[w]) != 0) ++mismatches;
    }
    std::vector<std::uint64_t> replayed(received.size());
    replay_.resolve_mask(dep, transmit_words, listen_words, replayed);
    screened += replay_.last_stats().screened;
  }

  mutable std::size_t rounds = 0, mismatches = 0, screened = 0;

 private:
  const SinrChannelAdapter& inner_;
  mutable BatchResolver replay_;
};

/// Runs the default fading algorithm on `kind` deployments at each n, for
/// every closed-form alpha and two trials, and requires every word round
/// to match the reference and the screen to decide listeners. At alpha = 2
/// (outside the paper's alpha > 2) an execution on an area deployment runs
/// for hundreds of rounds of about the same size, so those executions stop
/// after 48 rounds.
void check_kind(const std::string& kind,
                std::initializer_list<std::size_t> sizes) {
  for (const std::size_t n : sizes) {
    for (const double alpha : {2.0, 3.0, 4.0, 6.0}) {
      fabric::SweepSpec spec;
      spec.deployment = kind;
      spec.n = n;
      spec.alpha = alpha;
      const fabric::Factories f = fabric::make_factories(spec);
      const Rng master(spec.seed);
      for (std::size_t trial = 0; trial < 2; ++trial) {
        std::string where = kind;
        where.append(" n ").append(std::to_string(n));
        where.append(" alpha ").append(std::to_string(alpha));
        where.append(" trial ").append(std::to_string(trial));
        TrialStreams streams = trial_streams(master, trial);
        const Deployment dep = f.deploy(streams.deploy);
        const auto channel = f.channel(dep);
        const auto* sinr =
            dynamic_cast<const SinrChannelAdapter*>(channel.get());
        ASSERT_NE(sinr, nullptr) << where;
        const auto algorithm = f.algorithm(dep);
        const CheckingAdapter checked(*sinr);
        EngineConfig config;
        if (alpha == 2.0) config.max_rounds = 48;
        ExecutionWorkspace ws;
        const RunResult checked_run =
            ws.run(dep, *algorithm, checked, config, streams.run);
        const RunResult plain_run =
            ws.run(dep, *algorithm, *channel, config, streams.run);
        EXPECT_EQ(checked_run.solved, plain_run.solved) << where;
        if (alpha != 2.0) {
          EXPECT_TRUE(checked_run.solved) << where;
        }
        EXPECT_EQ(checked_run.rounds, plain_run.rounds) << where;
        EXPECT_EQ(checked_run.winner, plain_run.winner) << where;
        EXPECT_GT(checked.rounds, 0u) << where;
        EXPECT_EQ(checked.mismatches, 0u) << where;
        EXPECT_GT(checked.screened, 0u) << where;
      }
    }
  }
}

TEST(BatchResolveEngine, UniformRoundsMatchTheReference) {
  check_kind("uniform", {2048, 4096});
}

TEST(BatchResolveEngine, DiskRoundsMatchTheReference) {
  check_kind("disk", {2048, 4096});
}

TEST(BatchResolveEngine, ClusterRoundsMatchTheReference) {
  check_kind("clusters", {2048, 4096});
}

TEST(BatchResolveEngine, ChainRoundsMatchTheReference) {
  check_kind("chain", {2048, 4096});
}

TEST(BatchResolveEngine, RingRoundsMatchTheReference) {
  check_kind("ring", {2048, 3000});
}

TEST(BatchResolveEngine, MultiScaleRoundsMatchTheReference) {
  check_kind("multi-scale", {2048, 4096});
}

}  // namespace
}  // namespace fcr
