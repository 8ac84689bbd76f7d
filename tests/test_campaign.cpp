// CampaignRunner tests: SIGKILL-then-resume bit-identity, per-trial
// isolation under injected faults at every registered site, retry RNG
// discipline, watchdog deadlines, and checkpoint corruption handling.
//
// NOTE: the kill/resume test fork()s, so it must run before any test in
// this binary touches ThreadPool::global() (a forked child of a threaded
// process is only safe on the campaign's serial path, which the child
// uses — but keeping the parent single-threaded at fork time removes the
// remaining allocator-lock hazard). gtest runs tests in declaration
// order; keep the fork test first.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/fading_cr.hpp"
#include "deploy/generators.hpp"
#include "sim/campaign.hpp"
#include "sim/channel_adapter.hpp"
#include "stateful_channels.hpp"
#include "util/failpoint.hpp"

namespace fcr {
namespace {

DeploymentFactory uniform_factory(std::size_t n) {
  return [n](Rng& rng) {
    return uniform_square(n, 2.0 * std::sqrt(static_cast<double>(n)), rng)
        .normalized();
  };
}

AlgorithmFactory fading_factory() {
  return [](const Deployment&) {
    return std::make_unique<FadingContentionResolution>();
  };
}

CampaignConfig base_config(std::size_t trials) {
  CampaignConfig cc;
  cc.trial.trials = trials;
  cc.trial.engine.max_rounds = 20000;
  cc.identity = "test-campaign";
  return cc;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fcr_" + name + "_" +
         std::to_string(::getpid());
}

// ------------------------------------------------------------ kill/resume

TEST(CampaignKillResume, SigkilledCampaignResumesBitIdentical) {
  const std::string ck = temp_path("killresume.ckpt");
  std::remove(ck.c_str());

  CampaignConfig cc = base_config(8);
  cc.threads = 1;  // serial: fork()-safe, never touches the pool
  cc.checkpoint.path = ck;
  cc.checkpoint.every = 1;

  const std::uint64_t hash = campaign_config_hash(cc);

  const pid_t child = fork();
  ASSERT_NE(child, -1) << "fork failed";
  if (child == 0) {
    // Child: same campaign, but each trial's deployment build sleeps so
    // the parent can catch it mid-flight. The sleep never touches any
    // rng stream, so trial outcomes are unchanged.
    const DeploymentFactory base = uniform_factory(48);
    const DeploymentFactory slow = [&base](Rng& rng) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      return base(rng);
    };
    CampaignRunner runner(slow, sinr_channel_factory(3.0, 1.5, 1e-9),
                          fading_factory(), cc);
    (void)runner.run();
    ::_exit(0);
  }

  // Parent: wait until the child has checkpointed a strict subset of the
  // trials, then SIGKILL it — no shutdown path runs in the child.
  bool killed_midway = false;
  for (int spin = 0; spin < 2000; ++spin) {
    std::string reason;
    const auto snap = load_checkpoint(ck, &hash, &reason);
    if (snap && snap->entries.size() >= 2 && snap->entries.size() <= 6) {
      ::kill(child, SIGKILL);
      killed_midway = true;
      break;
    }
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) break;  // finished
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (killed_midway) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
  }
  ASSERT_TRUE(killed_midway) << "child finished before it could be killed; "
                                "slow factory sleep too short";

  // Resume from the orphaned checkpoint (normal-speed factories).
  CampaignConfig resume_cc = cc;
  resume_cc.checkpoint.resume = true;
  CampaignRunner resumed_runner(uniform_factory(48),
                                sinr_channel_factory(3.0, 1.5, 1e-9),
                                fading_factory(), resume_cc);
  const CampaignResult resumed = resumed_runner.run();
  EXPECT_GE(resumed.restored, 2u);
  EXPECT_LE(resumed.restored, 6u);
  EXPECT_TRUE(resumed.checkpoint_rejected.empty());

  // Uninterrupted reference run, same config, no checkpointing at all.
  CampaignConfig clean_cc = base_config(8);
  clean_cc.threads = 1;
  CampaignRunner clean_runner(uniform_factory(48),
                              sinr_channel_factory(3.0, 1.5, 1e-9),
                              fading_factory(), clean_cc);
  const CampaignResult clean = clean_runner.run();

  // The acceptance bar: bit-identical TrialSetResult.
  EXPECT_EQ(resumed.result.trials, clean.result.trials);
  EXPECT_EQ(resumed.result.solved, clean.result.solved);
  EXPECT_EQ(resumed.result.rounds, clean.result.rounds);

  // And the campaign layer itself matches the reference batch runner.
  const TrialSetResult reference =
      run_trials(uniform_factory(48), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), clean_cc.trial);
  EXPECT_EQ(clean.result.solved, reference.solved);
  EXPECT_EQ(clean.result.rounds, reference.rounds);

  std::remove(ck.c_str());
}

// ------------------------------------------------------------- clean runs

TEST(Campaign, CleanSerialCampaignMatchesRunTrials) {
  const CampaignConfig cc = base_config(12);
  CampaignRunner runner(uniform_factory(32),
                        sinr_channel_factory(3.0, 1.5, 1e-9),
                        fading_factory(), cc);
  const CampaignResult res = runner.run();
  const TrialSetResult reference =
      run_trials(uniform_factory(32), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), cc.trial);
  EXPECT_EQ(res.result.trials, reference.trials);
  EXPECT_EQ(res.result.solved, reference.solved);
  EXPECT_EQ(res.result.rounds, reference.rounds);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.retried, 0u);
  EXPECT_EQ(res.quarantined, 0u);

  const DeploymentFactory fixed = stateful_channels::fixed_uniform(32);
  for (const ChannelFactory& channel : stateful_channels::factories()) {
    CampaignRunner fixed_runner(fixed, channel, fading_factory(), cc);
    const TrialSetResult fixed_result = fixed_runner.run().result;
    const TrialSetResult fixed_reference =
        run_trials(fixed, channel, fading_factory(), cc.trial);
    EXPECT_EQ(fixed_result.solved, fixed_reference.solved);
    EXPECT_EQ(fixed_result.rounds, fixed_reference.rounds);
  }
}

TEST(Campaign, CleanParallelCampaignMatchesRunTrials) {
  CampaignConfig cc = base_config(12);
  cc.threads = 4;
  CampaignRunner runner(uniform_factory(32),
                        sinr_channel_factory(3.0, 1.5, 1e-9),
                        fading_factory(), cc);
  const CampaignResult res = runner.run();
  const TrialSetResult reference =
      run_trials(uniform_factory(32), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), cc.trial);
  EXPECT_EQ(res.result.solved, reference.solved);
  EXPECT_EQ(res.result.rounds, reference.rounds);

  const DeploymentFactory fixed = stateful_channels::fixed_uniform(32);
  for (const ChannelFactory& channel : stateful_channels::factories()) {
    CampaignRunner fixed_runner(fixed, channel, fading_factory(), cc);
    const TrialSetResult fixed_result = fixed_runner.run().result;
    const TrialSetResult fixed_reference =
        run_trials(fixed, channel, fading_factory(), cc.trial);
    EXPECT_EQ(fixed_result.solved, fixed_reference.solved);
    EXPECT_EQ(fixed_result.rounds, fixed_reference.rounds);
  }
}

TEST(Campaign, Validation) {
  const auto deploy = uniform_factory(8);
  const auto channel = sinr_channel_factory(3.0, 1.5, 1e-9);
  const auto algo = fading_factory();
  CampaignConfig cc = base_config(4);
  cc.retry.max_attempts = 0;
  EXPECT_THROW(CampaignRunner(deploy, channel, algo, cc),
               std::invalid_argument);
  cc = base_config(4);
  cc.checkpoint.resume = true;  // no path
  EXPECT_THROW(CampaignRunner(deploy, channel, algo, cc),
               std::invalid_argument);
  cc = base_config(0);
  EXPECT_THROW(CampaignRunner(deploy, channel, algo, cc),
               std::invalid_argument);
}

// -------------------------------------------------------- fault isolation

TEST(Campaign, FailpointAtEverySiteYieldsPartialResultsNotAbort) {
  if (!failpoint::enabled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string ck = temp_path("faultmatrix.ckpt");
  for (const std::string& site : failpoint::sites()) {
    // fabric/* sites live on the socket transport's wire paths and are
    // never hit by a local campaign; test_fabric.cpp exercises them.
    if (site.rfind("fabric/", 0) == 0) continue;
    SCOPED_TRACE(site);
    failpoint::disarm_all();
    std::remove(ck.c_str());
    failpoint::arm(site, {});  // one-shot on the first hit

    CampaignConfig cc = base_config(6);
    // pool/claim only exists on the pool path; everything else is
    // exercised serially too. Checkpointing is on so checkpoint/write
    // has a seam to hit.
    cc.threads = site == "pool/claim" ? 2 : 1;
    cc.checkpoint.path = ck;
    cc.checkpoint.every = 2;
    CampaignRunner runner(uniform_factory(24),
                          sinr_channel_factory(3.0, 1.5, 1e-9),
                          fading_factory(), cc);
    const CampaignResult res = runner.run();

    // The injected fault fired exactly once, was recorded, and the
    // campaign still delivered every trial: no batch abort, the failed
    // trial retried on its re-split stream (or, for non-trial seams like
    // checkpoint/write, the failure was a campaign warning).
    EXPECT_EQ(res.result.trials, 6u);
    EXPECT_EQ(res.result.solved + res.quarantined, 6u);
    EXPECT_EQ(res.quarantined, 0u);
    ASSERT_GE(res.failures.size(), 1u) << res.failure_report();
    EXPECT_EQ(res.failures[0].category, ErrorCategory::kInjected);
    EXPECT_NE(res.failure_report().find(site), std::string::npos)
        << res.failure_report();
  }
  failpoint::disarm_all();
  std::remove(ck.c_str());
}

TEST(Campaign, RetriedTrialLeavesOtherTrialsBitIdentical) {
  if (!failpoint::enabled()) GTEST_SKIP() << "failpoints compiled out";
  const CampaignConfig cc = base_config(10);

  CampaignRunner clean_runner(uniform_factory(32),
                              sinr_channel_factory(3.0, 1.5, 1e-9),
                              fading_factory(), cc);
  const CampaignResult clean = clean_runner.run();
  ASSERT_EQ(clean.result.solved, 10u);

  failpoint::arm("campaign/trial", {});  // first trial attempt fails
  CampaignRunner faulted_runner(uniform_factory(32),
                                sinr_channel_factory(3.0, 1.5, 1e-9),
                                fading_factory(), cc);
  const CampaignResult faulted = faulted_runner.run();
  failpoint::disarm_all();

  ASSERT_EQ(faulted.result.solved, 10u);
  ASSERT_EQ(faulted.failures.size(), 1u);
  const std::size_t hit = faulted.failures[0].trial;
  ASSERT_LT(hit, 10u);
  EXPECT_EQ(faulted.retried, 1u);
  // Every OTHER trial's completion round is untouched by the retry: the
  // re-split stream perturbs only the trial that failed.
  for (std::size_t t = 0; t < 10; ++t) {
    if (t == hit) continue;
    EXPECT_EQ(faulted.result.rounds[t], clean.result.rounds[t]) << "trial " << t;
  }
}

TEST(Campaign, PersistentFaultQuarantinesOnlyTheStruckTrial) {
  if (!failpoint::enabled()) GTEST_SKIP() << "failpoints compiled out";
  // every=1: the campaign/trial seam fails EVERY attempt of whatever
  // trial hits it first... and every other attempt too — so with
  // max_attempts=2 and a fault on every hit, all trials quarantine.
  // Use fire-on-hit counting instead: hits 1,2 are trial 0's two
  // attempts (serial order), so arm a periodic spec that covers them.
  failpoint::Spec spec;
  spec.every = 0;
  spec.fire_on_hit = 1;
  failpoint::arm("campaign/trial", spec);

  CampaignConfig cc = base_config(5);
  cc.retry.max_attempts = 2;
  CampaignRunner runner(uniform_factory(24),
                        sinr_channel_factory(3.0, 1.5, 1e-9),
                        fading_factory(), cc);
  CampaignResult res = runner.run();
  failpoint::disarm_all();
  // One-shot fault: trial 0's first attempt fails, retry succeeds.
  EXPECT_EQ(res.result.solved, 5u);
  EXPECT_EQ(res.quarantined, 0u);
  EXPECT_EQ(res.retried, 1u);

  // Now a fault that fires on every hit: the struck trials exhaust their
  // attempts and quarantine, but the campaign still returns.
  failpoint::Spec always;
  always.every = 1;
  failpoint::arm("campaign/trial", always);
  CampaignRunner runner2(uniform_factory(24),
                         sinr_channel_factory(3.0, 1.5, 1e-9),
                         fading_factory(), cc);
  res = runner2.run();
  failpoint::disarm_all();
  EXPECT_EQ(res.result.trials, 5u);
  EXPECT_EQ(res.quarantined, 5u);
  EXPECT_EQ(res.result.solved, 0u);
  EXPECT_EQ(res.failures.size(), 10u);  // 5 trials x 2 attempts
}

// ------------------------------------------------------------- corruption

CheckpointData sample_checkpoint() {
  CheckpointData data;
  data.config_hash = 0xFEEDFACEu;
  data.total_trials = 4;
  for (std::uint64_t t = 0; t < 3; ++t) {
    CheckpointEntry e;
    e.trial = t;
    e.solved = true;
    e.rounds = 100 + t;
    e.attempts = 1;
    data.entries.push_back(e);
  }
  return data;
}

TEST(CampaignCheckpoint, RoundTripsThroughDisk) {
  const std::string path = temp_path("roundtrip.ckpt");
  const CheckpointData data = sample_checkpoint();
  write_checkpoint(path, data);
  std::string reason;
  const auto loaded = load_checkpoint(path, &data.config_hash, &reason);
  ASSERT_TRUE(loaded) << reason;
  EXPECT_EQ(loaded->total_trials, 4u);
  ASSERT_EQ(loaded->entries.size(), 3u);
  EXPECT_EQ(loaded->entries[2].rounds, 102u);
  EXPECT_TRUE(loaded->entries[2].solved);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, TruncatedFileIsRejectedCleanly) {
  const std::string path = temp_path("truncated.ckpt");
  write_checkpoint(path, sample_checkpoint());
  // Chop the file mid-entry.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 10u);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  out.close();
  std::string reason;
  EXPECT_FALSE(load_checkpoint(path, nullptr, &reason));
  EXPECT_NE(reason.find("truncated"), std::string::npos) << reason;
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, BitFlippedPayloadFailsCrc) {
  const std::string path = temp_path("bitflip.ckpt");
  write_checkpoint(path, sample_checkpoint());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] ^= 0x10;  // flip one bit mid-payload
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::string reason;
  EXPECT_FALSE(load_checkpoint(path, nullptr, &reason));
  EXPECT_NE(reason.find("CRC"), std::string::npos) << reason;
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, ConfigHashMismatchIsRejected) {
  const std::string path = temp_path("wronghash.ckpt");
  write_checkpoint(path, sample_checkpoint());
  const std::uint64_t other_hash = 0xDEADBEEFu;
  std::string reason;
  EXPECT_FALSE(load_checkpoint(path, &other_hash, &reason));
  EXPECT_NE(reason.find("different campaign config"), std::string::npos)
      << reason;
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, MissingFileReportsReason) {
  std::string reason;
  EXPECT_FALSE(load_checkpoint(temp_path("never-written.ckpt"), nullptr,
                               &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(CampaignCheckpoint, CorruptCheckpointFallsBackToFreshRun) {
  const std::string path = temp_path("fallback.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint at all";
  }
  CampaignConfig cc = base_config(6);
  cc.checkpoint.path = path;
  cc.checkpoint.every = 2;
  cc.checkpoint.resume = true;
  CampaignRunner runner(uniform_factory(24),
                        sinr_channel_factory(3.0, 1.5, 1e-9),
                        fading_factory(), cc);
  const CampaignResult res = runner.run();
  // Rejection is surfaced, nothing restored, and the campaign still ran
  // to completion — matching a clean reference.
  EXPECT_FALSE(res.checkpoint_rejected.empty());
  EXPECT_EQ(res.restored, 0u);
  EXPECT_EQ(res.result.trials, 6u);
  const TrialSetResult reference =
      run_trials(uniform_factory(24), sinr_channel_factory(3.0, 1.5, 1e-9),
                 fading_factory(), cc.trial);
  EXPECT_EQ(res.result.solved, reference.solved);
  EXPECT_EQ(res.result.rounds, reference.rounds);
  std::remove(path.c_str());
}

// --------------------------------------------------------------- watchdog

class AlwaysTransmit final : public Algorithm {
 public:
  std::string name() const override { return "always-transmit"; }
  std::unique_ptr<NodeProtocol> make_node(NodeId, Rng) const override {
    class Node final : public NodeProtocol {
     public:
      Action on_round_begin(std::uint64_t) override { return Action::kTransmit; }
      void on_round_end(const Feedback&) override {}
    };
    return std::make_unique<Node>();
  }
};

TEST(Campaign, RoundBudgetWatchdogTimesOutAndQuarantines) {
  struct Case {
    std::uint64_t max_rounds;
    std::uint64_t round_budget;
    std::uint64_t timeout_round;  // 0: a plain unsolved entry, no failure
  };
  const Case cases[] = {
      {100000, 64, 64},  // the watchdog must beat the engine bound
      {64, 64, 64},      // a budget equal to the bound still times out
      {64, 65, 0},       // one past the bound can never trip
      {100000, 1, 1},    // the smallest budget trips at round 1
  };
  const std::string ck = temp_path("watchdog.ckpt");
  for (const Case& c : cases) {
    SCOPED_TRACE("max_rounds " + std::to_string(c.max_rounds) +
                 ", round_budget " + std::to_string(c.round_budget));
    CampaignConfig cc = base_config(3);
    cc.trial.engine.max_rounds = c.max_rounds;
    cc.watchdog.round_budget = c.round_budget;
    cc.retry.max_attempts = 2;
    cc.checkpoint.path = ck;
    // Two nodes that always transmit: never a solo round, never solved.
    CampaignRunner runner(
        uniform_factory(2), sinr_channel_factory(3.0, 1.5, 1e-9),
        [](const Deployment&) { return std::make_unique<AlwaysTransmit>(); },
        cc);
    const CampaignResult res = runner.run();
    EXPECT_EQ(res.result.solved, 0u);
    const auto snapshot = load_checkpoint(ck, nullptr, nullptr);
    ASSERT_TRUE(snapshot);
    ASSERT_EQ(snapshot->entries.size(), 3u);
    if (c.timeout_round == 0) {
      // A plain unsolved entry at the engine bound, with no failure.
      EXPECT_TRUE(res.failures.empty()) << res.failure_report();
      EXPECT_EQ(res.quarantined, 0u);
      for (const CheckpointEntry& e : snapshot->entries) {
        EXPECT_FALSE(e.solved);
        EXPECT_FALSE(e.quarantined);
        EXPECT_EQ(e.rounds, c.max_rounds);
        EXPECT_EQ(e.attempts, 1u);
      }
      continue;
    }
    EXPECT_EQ(res.quarantined, 3u);
    ASSERT_EQ(res.failures.size(), 6u);  // 3 trials x 2 attempts
    const std::string at =
        "(round " + std::to_string(c.timeout_round) + ")";
    for (const TrialFailure& f : res.failures) {
      EXPECT_EQ(f.category, ErrorCategory::kTimeout);
      EXPECT_NE(f.message.find(at), std::string::npos) << f.message;
    }
    for (const CheckpointEntry& e : snapshot->entries) {
      EXPECT_TRUE(e.quarantined);
      EXPECT_EQ(e.attempts, 2u);
    }
  }
  std::remove(ck.c_str());
}

/// Forwards every call to a SINR adapter and counts which resolve entry
/// the engine uses.
struct ResolveCounts {
  std::atomic<std::size_t> ids{0};
  std::atomic<std::size_t> mask{0};
};

class CountingAdapter final : public ChannelAdapter {
 public:
  CountingAdapter(std::unique_ptr<ChannelAdapter> inner, ResolveCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  std::string name() const override { return inner_->name(); }
  bool provides_collision_detection() const override {
    return inner_->provides_collision_detection();
  }
  bool resolves_listeners_independently() const override {
    return inner_->resolves_listeners_independently();
  }
  bool supports_mask_resolve() const override {
    return inner_->supports_mask_resolve();
  }
  void resolve(const Deployment& dep, std::span<const NodeId> transmitters,
               std::span<const NodeId> listeners,
               std::span<Feedback> out) const override {
    ++counts_.ids;
    inner_->resolve(dep, transmitters, listeners, out);
  }
  void resolve_mask(const Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override {
    ++counts_.mask;
    inner_->resolve_mask(dep, transmit_words, listen_words, transmitter_count,
                         received);
  }

 private:
  std::unique_ptr<ChannelAdapter> inner_;
  ResolveCounts& counts_;
};

TEST(Campaign, RoundBudgetKeepsTheBitmaskLoop) {
  const ChannelFactory sinr = sinr_channel_factory(3.0, 1.5, 1e-9);
  ResolveCounts counts;
  const ChannelFactory counting =
      [&](const Deployment& dep) -> std::unique_ptr<ChannelAdapter> {
    return std::make_unique<CountingAdapter>(sinr(dep), counts);
  };
  const AlgorithmFactory fading = [](const Deployment&) {
    return std::make_unique<FadingContentionResolution>(0.2);
  };
  CampaignConfig cc = base_config(6);
  cc.trial.engine.max_rounds = 1000000;
  const CampaignResult plain =
      CampaignRunner(uniform_factory(256), sinr, fading, cc).run();

  cc.watchdog.round_budget = 100000;  // far beyond any completion
  const CampaignResult watched =
      CampaignRunner(uniform_factory(256), counting, fading, cc).run();
  EXPECT_EQ(counts.ids.load(), 0u);
  EXPECT_GE(counts.mask.load(), 1u);
  EXPECT_TRUE(watched.failures.empty()) << watched.failure_report();
  EXPECT_EQ(watched.result.solved, plain.result.solved);
  EXPECT_EQ(watched.result.rounds, plain.result.rounds);
}

TEST(Campaign, WatchdogDoesNotPerturbHealthyTrials) {
  CampaignConfig cc = base_config(8);
  CampaignRunner clean_runner(uniform_factory(32),
                              sinr_channel_factory(3.0, 1.5, 1e-9),
                              fading_factory(), cc);
  const CampaignResult clean = clean_runner.run();

  CampaignConfig guarded = cc;
  guarded.watchdog.round_budget = 15000;  // far beyond any completion
  CampaignRunner guarded_runner(uniform_factory(32),
                                sinr_channel_factory(3.0, 1.5, 1e-9),
                                fading_factory(), guarded);
  const CampaignResult watched = guarded_runner.run();
  EXPECT_EQ(watched.result.rounds, clean.result.rounds);
  EXPECT_TRUE(watched.failures.empty());
}

}  // namespace
}  // namespace fcr
