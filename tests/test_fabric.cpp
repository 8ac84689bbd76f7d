// Campaign fabric tests: spec/wire round-trips, frame corruption, and the
// bit-identity proof obligation — a campaign sharded over socket workers
// (healthy, faulty, crashing, or absent) must produce results identical to
// a clean single-process run (docs/ROBUSTNESS.md §6).
//
// Workers here are fabric::run_worker on std::threads inside this process:
// the exact code fcrw runs, minus the fork/exec, so lease scheduling,
// transport faults, and crash recovery are exercised deterministically
// under the sanitizers. Process-level kills are covered by
// scripts/fabric_fault_matrix.sh.
#include <chrono>
#include <future>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/spec.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_core.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fcr {
namespace {

// UNIX socket paths must fit sun_path (~108 bytes), so sockets live under
// /tmp rather than the (often deep) gtest temp dir.
std::string sock_path(const std::string& name) {
  return "/tmp/fcr_fab_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

/// A sweep small enough that every test finishes in well under a second.
fabric::SweepSpec small_spec(std::size_t trials = 12) {
  fabric::SweepSpec spec;
  spec.n = 24;
  spec.trials = trials;
  spec.seed = 777;
  return spec;
}

CampaignResult run_local(const fabric::SweepSpec& spec) {
  const fabric::Factories f = fabric::make_factories(spec);
  CampaignRunner runner(f.deploy, f.channel, f.algorithm,
                        fabric::campaign_config(spec));
  return runner.run();
}

fabric::FabricConfig fast_fabric(const fabric::SweepSpec& spec,
                                 const std::string& socket) {
  fabric::FabricConfig fc;
  fc.socket_path = socket;
  fc.spec = spec;
  fc.lease_trials = 4;
  fc.lease_timeout_ms = 400;
  fc.worker_grace_ms = 2000;
  return fc;
}

fabric::WorkerConfig fast_worker(const std::string& socket,
                                 const std::string& name) {
  fabric::WorkerConfig wc;
  wc.socket_path = socket;
  wc.name = name;
  wc.heartbeat_ms = 50;
  wc.io_timeout_ms = 250;
  wc.connect_retry_ms = 20;
  wc.connect_attempts = 100;
  return wc;
}

struct FabricRun {
  CampaignResult campaign;
  fabric::SocketBackend::Stats stats;
  // int, not bool: vector<bool> packs bits, and the worker threads write
  // their slots concurrently — distinct ints are race-free, bits are not.
  std::vector<int> worker_clean;
  std::vector<fabric::WorkerStats> wstats;
};

/// Runs `spec` through a SocketBackend with the given worker fleet on
/// threads. The backend is destroyed before the join: its destructor
/// broadcasts Shutdown and unlinks the socket, so idle workers always find
/// an exit (clean-idle semantics) and the join cannot hang. `start_delay_ms`
/// staggers worker launch (trials are microseconds here, so an unstaggered
/// fleet can let one fast worker drain the whole campaign before the
/// others even connect).
FabricRun run_fabric(const fabric::SweepSpec& spec, fabric::FabricConfig fc,
                     const std::vector<fabric::WorkerConfig>& wcs,
                     const std::vector<std::uint64_t>& start_delay_ms = {}) {
  const fabric::Factories f = fabric::make_factories(spec);
  CampaignRunner runner(f.deploy, f.channel, f.algorithm,
                        fabric::campaign_config(spec));
  FabricRun out;
  out.worker_clean.assign(wcs.size(), 0);
  out.wstats.assign(wcs.size(), fabric::WorkerStats{});
  std::vector<std::thread> fleet;
  {
    fabric::SocketBackend backend(std::move(fc));
    fleet.reserve(wcs.size());
    for (std::size_t i = 0; i < wcs.size(); ++i) {
      const std::uint64_t delay =
          i < start_delay_ms.size() ? start_delay_ms[i] : 0;
      fleet.emplace_back([&out, &wcs, i, delay] {
        if (delay != 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
        out.worker_clean[i] =
            fabric::run_worker(wcs[i], &out.wstats[i]) ? 1 : 0;
      });
    }
    out.campaign = runner.run_with(backend);
    out.stats = backend.stats();
  }
  for (std::thread& t : fleet) t.join();
  return out;
}

/// A raw client's dial, retried for up to ~2 s. Invalid Fd on failure.
fabric::Fd dial_raw(const std::string& socket) {
  fabric::Fd fd;
  for (int i = 0; i < 200 && !fd.valid(); ++i) {
    fd = fabric::connect_unix(socket);
    if (!fd.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return fd;
}

/// A raw client's wait for its next frame: nullopt on timeout or EOF.
std::optional<fabric::Frame> await_raw(fabric::FrameChannel& ch,
                                       std::uint64_t timeout_ms) {
  const std::uint64_t deadline = fabric::steady_ms() + timeout_ms;
  while (fabric::steady_ms() < deadline) {
    if (auto f = ch.next()) return f;
    pollfd pfd{ch.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 10);
    if (!ch.pump()) return ch.next();
  }
  return std::nullopt;
}

void expect_same_result(const CampaignResult& got, const CampaignResult& want) {
  EXPECT_EQ(got.result.trials, want.result.trials);
  EXPECT_EQ(got.result.solved, want.result.solved);
  ASSERT_EQ(got.result.rounds.size(), want.result.rounds.size());
  for (std::size_t i = 0; i < want.result.rounds.size(); ++i) {
    EXPECT_EQ(got.result.rounds[i], want.result.rounds[i]) << "trial " << i;
  }
}

// -------------------------------------------------------------------- spec

TEST(FabricSpec, SerializeParseRoundTrip) {
  fabric::SweepSpec spec;
  spec.deployment = "clusters";
  spec.n = 96;
  spec.side = 12.5;
  spec.clusters = 5;
  spec.channel = "rayleigh";
  spec.alpha = 2.75;
  spec.fading_severity = 1.25;
  spec.algorithm = "decay";
  spec.p = 0.375;
  spec.trials = 33;
  spec.seed = 424242;
  spec.round_budget = 5000;
  spec.max_attempts = 2;

  const std::string text = fabric::serialize_spec(spec);
  const fabric::SweepSpec back = fabric::parse_spec(text);
  EXPECT_EQ(fabric::serialize_spec(back), text);
  EXPECT_EQ(back.identity(), spec.identity());
  EXPECT_EQ(campaign_config_hash(fabric::campaign_config(back)),
            campaign_config_hash(fabric::campaign_config(spec)));

  // Every serialized field that changes what a trial computes keys the
  // checkpoint; the retry budget deliberately does not.
  using Edit = void (*)(fabric::SweepSpec&);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"deployment", [](fabric::SweepSpec& s) { s.deployment = "disk"; }},
      {"n", [](fabric::SweepSpec& s) { s.n += 1; }},
      {"side", [](fabric::SweepSpec& s) { s.side += 1.0; }},
      {"clusters", [](fabric::SweepSpec& s) { s.clusters += 1; }},
      {"span", [](fabric::SweepSpec& s) { s.span *= 2.0; }},
      {"levels", [](fabric::SweepSpec& s) { s.levels += 1; }},
      {"channel", [](fabric::SweepSpec& s) { s.channel = "sinr"; }},
      {"alpha", [](fabric::SweepSpec& s) { s.alpha = 4.0; }},
      {"beta", [](fabric::SweepSpec& s) { s.beta = 3.0; }},
      {"noise", [](fabric::SweepSpec& s) { s.noise *= 2.0; }},
      {"fading_severity",
       [](fabric::SweepSpec& s) { s.fading_severity = 0.5; }},
      {"algorithm", [](fabric::SweepSpec& s) { s.algorithm = "fading"; }},
      {"p", [](fabric::SweepSpec& s) { s.p = 0.5; }},
      {"trials", [](fabric::SweepSpec& s) { s.trials += 1; }},
      {"seed", [](fabric::SweepSpec& s) { s.seed += 1; }},
      {"max_rounds", [](fabric::SweepSpec& s) { s.max_rounds += 1; }},
      {"round_budget", [](fabric::SweepSpec& s) { s.round_budget += 1; }},
  };
  const std::uint64_t hash = campaign_config_hash(fabric::campaign_config(spec));
  for (const auto& [field, edit] : edits) {
    fabric::SweepSpec changed = spec;
    edit(changed);
    EXPECT_NE(campaign_config_hash(fabric::campaign_config(changed)), hash)
        << field;
  }
  fabric::SweepSpec more_retries = spec;
  more_retries.max_attempts += 1;
  EXPECT_EQ(campaign_config_hash(fabric::campaign_config(more_retries)), hash);
}

TEST(FabricSpec, ParseRejectsMalformedText) {
  const fabric::SweepSpec spec;
  const std::string good = fabric::serialize_spec(spec);
  const std::vector<std::string> bads = {
      "mystery_key=1;" + good, "n=notanumber", "n", good + ";trials=0",
      // 2^64 must not wrap to 0 (which would turn the watchdog off).
      good + ";round_budget=18446744073709551616",
      good + ";seed=99999999999999999999"};
  for (const std::string& bad : bads) {
    try {
      fabric::parse_spec(bad);
      FAIL() << "expected kConfig for: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig) << bad;
    }
  }
}

TEST(FabricSpec, AlgorithmHelpNamesEveryRegistryKey) {
  CliParser cli("spec flags");
  fabric::add_spec_flags(cli);
  std::ostringstream help;
  cli.print_help(help);
  const std::string text = help.str();
  const std::string flag = "  --algorithm  (default: fading)\n";
  const std::size_t at = text.find(flag);
  ASSERT_NE(at, std::string::npos) << text;
  const std::size_t begin = at + flag.size();
  const std::string line = text.substr(begin, text.find('\n', begin) - begin);
  std::set<std::string> tokens;
  std::istringstream fields(line.substr(line.find(':') + 1));
  for (std::string token; std::getline(fields, token, '|');) {
    const std::size_t lo = token.find_first_not_of(' ');
    const std::size_t hi = token.find_last_not_of(' ');
    if (lo != std::string::npos) tokens.insert(token.substr(lo, hi - lo + 1));
  }
  for (const AlgorithmSpec& spec : algorithm_catalog()) {
    EXPECT_EQ(tokens.count(spec.key), 1u)
        << "--algorithm help omits '" << spec.key << "': " << line;
  }
}

// -------------------------------------------------------------------- wire

TEST(FabricWire, TypedPayloadsRoundTrip) {
  const fabric::HelloMsg hello{"fcrw#test"};
  EXPECT_EQ(fabric::decode_hello(fabric::encode_hello(hello)).worker,
            hello.worker);

  fabric::LeaseGrantMsg grant;
  grant.lease = 42;
  grant.config_hash = 0xDEADBEEFCAFEF00Dull;
  grant.trials = {3, 1, 17};
  grant.spec = fabric::serialize_spec(fabric::SweepSpec{});
  const fabric::LeaseGrantMsg grant2 =
      fabric::decode_lease_grant(fabric::encode_lease_grant(grant));
  EXPECT_EQ(grant2.lease, grant.lease);
  EXPECT_EQ(grant2.config_hash, grant.config_hash);
  EXPECT_EQ(grant2.trials, grant.trials);
  EXPECT_EQ(grant2.spec, grant.spec);

  EXPECT_EQ(fabric::decode_no_work(fabric::encode_no_work({1234})).backoff_ms,
            1234u);
  const fabric::HeartbeatMsg hb2 =
      fabric::decode_heartbeat(fabric::encode_heartbeat({7, 3}));
  EXPECT_EQ(hb2.lease, 7u);
  EXPECT_EQ(hb2.completed, 3u);
  EXPECT_EQ(fabric::decode_result_ack(fabric::encode_result_ack({9})).lease,
            9u);

  fabric::ShardResultMsg result;
  result.lease = 11;
  CheckpointData data;
  data.config_hash = 5;
  data.total_trials = 4;
  data.entries = {CheckpointEntry{2, true, false, 31, 1}};
  result.checkpoint = serialize_checkpoint(data);
  result.failures = {TrialFailure{2, 1, ErrorCategory::kTimeout,
                                  "round budget exhausted", "fcrw#test"}};
  const fabric::ShardResultMsg result2 =
      fabric::decode_shard_result(fabric::encode_shard_result(result));
  EXPECT_EQ(result2.lease, result.lease);
  EXPECT_EQ(result2.checkpoint, result.checkpoint);
  ASSERT_EQ(result2.failures.size(), 1u);
  EXPECT_EQ(result2.failures[0].trial, 2u);
  EXPECT_EQ(result2.failures[0].category, ErrorCategory::kTimeout);
  EXPECT_EQ(result2.failures[0].message, "round budget exhausted");
  EXPECT_EQ(result2.failures[0].worker, "fcrw#test");
}

TEST(FabricWire, FrameExtractionHandlesPartialsAndBackToBack) {
  const fabric::Frame a{fabric::MsgType::kHello,
                        fabric::encode_hello({"one"})};
  const fabric::Frame b{fabric::MsgType::kNoWork,
                        fabric::encode_no_work({55})};
  const std::string wire = fabric::encode_frame(a) + fabric::encode_frame(b);

  // Byte-at-a-time delivery: nothing is produced until a frame completes,
  // and both frames come out intact, in order.
  std::string buf;
  std::vector<fabric::Frame> got;
  for (const char c : wire) {
    buf.push_back(c);
    while (auto f = fabric::extract_frame(buf)) got.push_back(*f);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(fabric::decode_hello(got[0].payload).worker, "one");
  EXPECT_EQ(fabric::decode_no_work(got[1].payload).backoff_ms, 55u);
  EXPECT_TRUE(buf.empty());
}

TEST(FabricWire, EveryBitFlipPoisonsTheFrame) {
  const fabric::Frame frame{fabric::MsgType::kHeartbeat,
                            fabric::encode_heartbeat({3, 9})};
  const std::string wire = fabric::encode_frame(frame);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string buf = wire;
      buf[byte] = static_cast<char>(buf[byte] ^ (1 << bit));
      try {
        const auto f = fabric::extract_frame(buf);
        // A flip in the length field may leave a partial-looking frame
        // (reader waits for bytes that never come) — acceptable, since the
        // oversize cap bounds the wait. Delivering a frame is NOT.
        EXPECT_FALSE(f.has_value()) << "byte " << byte << " bit " << bit;
      } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCorrupt);
      }
    }
  }
}

TEST(FabricWire, OversizedLengthIsCorruptionNotAWait) {
  std::string wire =
      fabric::encode_frame({fabric::MsgType::kLeaseRequest, {}});
  // Stamp a length far above kMaxPayload into the header (offset 5).
  const std::uint32_t huge = (64u << 20);
  for (int i = 0; i < 4; ++i) {
    wire[5 + static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  try {
    fabric::extract_frame(wire);
    FAIL() << "expected kCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorrupt);
  }
}

// ---------------------------------------------------- campaign bit-identity

TEST(FabricCampaign, ThreeWorkersMatchLocalRunBitIdentically) {
  const fabric::SweepSpec spec = small_spec(20);
  const CampaignResult local = run_local(spec);

  const std::string socket = sock_path("three");
  const FabricRun run =
      run_fabric(spec, fast_fabric(spec, socket),
                 {fast_worker(socket, "w#1"), fast_worker(socket, "w#2"),
                  fast_worker(socket, "w#3")});

  expect_same_result(run.campaign, local);
  EXPECT_EQ(run.stats.local_fallback_trials, 0u);
  EXPECT_EQ(run.stats.results_merged, 5u);  // 20 trials / 4 per lease
  EXPECT_GE(run.stats.leases_granted, 5u);
  // Trials are microseconds here, so a worker can lose the startup race
  // and never participate — but every worker that DID take a lease must
  // have exited cleanly, and the fleet must have covered every shard.
  std::size_t fleet_leases = 0;
  for (std::size_t i = 0; i < run.wstats.size(); ++i) {
    fleet_leases += run.wstats[i].leases;
    if (run.wstats[i].leases > 0) {
      EXPECT_TRUE(run.worker_clean[i]) << "worker " << i;
    }
  }
  EXPECT_GE(fleet_leases, 5u);
}

TEST(FabricCampaign, WorkerCrashMidShardIsReassignedAndRecomputed) {
  const fabric::SweepSpec spec = small_spec(16);
  const CampaignResult local = run_local(spec);

  const std::string socket = sock_path("crash");
  fabric::WorkerConfig crasher = fast_worker(socket, "crasher");
  crasher.die_after_entries = 2;  // vanish mid-shard, holding a lease
  crasher.connect_retry_ms = 5;
  crasher.connect_attempts = 600;
  // The savior starts late so the crasher is guaranteed to own a lease
  // (and crash holding it) before anyone else can drain the campaign.
  const FabricRun run =
      run_fabric(spec, fast_fabric(spec, socket),
                 {crasher, fast_worker(socket, "savior")}, {0, 300});

  expect_same_result(run.campaign, local);
  EXPECT_FALSE(run.worker_clean[0]);  // the crash is an abandon, not clean
  EXPECT_TRUE(run.worker_clean[1]);
  // The crash closes the connection, so the abandoned lease is revoked on
  // worker death and re-granted: more grants than merged results.
  EXPECT_EQ(run.stats.results_merged, 4u);  // 16 trials / 4 per lease
  EXPECT_GT(run.stats.leases_granted, run.stats.results_merged);
}

TEST(FabricCampaign, SilentWorkerLeaseExpiresWithAStrike) {
  // A ZOMBIE worker takes a lease and then goes silent WITHOUT closing its
  // connection (a hung process / a partitioned host). Only the heartbeat
  // deadline can reclaim that shard: the lease must expire, the zombie must
  // be struck, and a healthy worker must recompute — bit-identically.
  const fabric::SweepSpec spec = small_spec(12);
  const CampaignResult local = run_local(spec);

  const std::string socket = sock_path("zombie");
  fabric::FabricConfig fc = fast_fabric(spec, socket);
  fc.lease_timeout_ms = 250;

  const fabric::Factories f = fabric::make_factories(spec);
  CampaignRunner runner(f.deploy, f.channel, f.algorithm,
                        fabric::campaign_config(spec));
  FabricRun run;
  std::thread healthy;
  std::thread zombie;
  {
    fabric::SocketBackend backend(std::move(fc));
    zombie = std::thread([&socket] {
      fabric::Fd fd = dial_raw(socket);
      if (!fd.valid()) return;
      fabric::FrameChannel ch(std::move(fd));
      ch.send(fabric::Frame{fabric::MsgType::kHello,
                            fabric::encode_hello({"zombie"})});
      ch.send(fabric::Frame{fabric::MsgType::kLeaseRequest, {}});
      while (ch.want_write() && ch.flush()) {
      }
      // Hold the lease silently past the deadline, then vanish.
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      ch.close();
    });
    // The healthy worker starts late so the zombie wins the first grant.
    healthy = std::thread([&socket, &run] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      run.worker_clean.push_back(
          fabric::run_worker(fast_worker(socket, "healthy")) ? 1 : 0);
    });
    run.campaign = runner.run_with(backend);
    run.stats = backend.stats();
  }
  zombie.join();
  healthy.join();

  expect_same_result(run.campaign, local);
  EXPECT_GE(run.stats.leases_expired, 1u);
  EXPECT_GE(run.stats.worker_strikes, 1u);
  EXPECT_EQ(run.stats.corrupt_results, 0u);
}

TEST(FabricCampaign, IdleWorkerLeavesOnShutdownNotAfterItsBackoff) {
  // A worker told NoWork waits on its socket, not on a timer, so the
  // Shutdown that ends the campaign ends a 10 s NoWork wait at once. A raw
  // client holds the only lease; a real worker arriving after the grant is
  // told NoWork with the worker's own 10 s cap as the backoff.
  const fabric::SweepSpec spec = small_spec(4);
  const CampaignResult local = run_local(spec);

  const std::string socket = sock_path("idle");
  fabric::FabricConfig fc = fast_fabric(spec, socket);
  fc.lease_trials = spec.trials;  // one lease, taken by the raw client
  fc.lease_timeout_ms = 5000;     // the raw client sends no heartbeats
  fc.backoff_base_ms = 10'000;

  const fabric::Factories f = fabric::make_factories(spec);
  CampaignRunner runner(f.deploy, f.channel, f.algorithm,
                        fabric::campaign_config(spec));
  CampaignResult campaign;
  fabric::SocketBackend::Stats stats;
  std::promise<void> granted;
  std::uint64_t result_sent_ms = 0;
  std::uint64_t worker_exit_ms = 0;
  int worker_clean = 0;
  fabric::WorkerStats wstats;
  std::thread holder;
  std::thread idle;
  {
    fabric::SocketBackend backend(std::move(fc));
    holder = std::thread([&] {
      fabric::FrameChannel ch(dial_raw(socket));
      ch.send(fabric::Frame{fabric::MsgType::kHello,
                            fabric::encode_hello({"holder"})});
      ch.send(fabric::Frame{fabric::MsgType::kLeaseRequest, {}});
      const std::optional<fabric::Frame> g = await_raw(ch, 5000);
      granted.set_value();
      if (!g || g->type != fabric::MsgType::kLeaseGrant) {
        ADD_FAILURE() << "the raw client got no grant";
        return;
      }
      const fabric::LeaseGrantMsg grant =
          fabric::decode_lease_grant(g->payload);
      EXPECT_EQ(grant.trials.size(), spec.trials);

      const fabric::Factories hf = fabric::make_factories(spec);
      const TrialExecutor executor(hf.deploy, hf.channel, hf.algorithm);
      const CampaignConfig cc = fabric::campaign_config(spec);
      const std::vector<std::size_t> trials(grant.trials.begin(),
                                            grant.trials.end());
      const ShardOutcome out = run_shard(executor, cc, trials, "holder");
      CheckpointData data;
      data.config_hash = campaign_config_hash(cc);
      data.total_trials = cc.trial.trials;
      data.entries = out.entries;
      const fabric::Frame result{
          fabric::MsgType::kShardResult,
          fabric::encode_shard_result(
              {grant.lease, serialize_checkpoint(data), out.failures})};

      // Let the real worker connect and settle into its NoWork wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      result_sent_ms = fabric::steady_ms();
      ch.send(result);
      // Hang up on the ack or on Shutdown.
      for (;;) {
        const std::optional<fabric::Frame> r = await_raw(ch, 5000);
        if (!r || r->type == fabric::MsgType::kResultAck ||
            r->type == fabric::MsgType::kShutdown) {
          break;
        }
      }
      ch.close();
    });
    idle = std::thread([&] {
      granted.get_future().wait();
      worker_clean = fabric::run_worker(fast_worker(socket, "idle"), &wstats)
                         ? 1
                         : 0;
      worker_exit_ms = fabric::steady_ms();
    });
    campaign = runner.run_with(backend);
    stats = backend.stats();
  }
  holder.join();
  idle.join();

  expect_same_result(campaign, local);
  EXPECT_EQ(stats.leases_granted, 1u);
  EXPECT_EQ(wstats.leases, 0u);
  EXPECT_TRUE(worker_clean);
  EXPECT_GE(wstats.no_work_waits, 1u);
  ASSERT_NE(result_sent_ms, 0u);
  EXPECT_LT(worker_exit_ms, result_sent_ms + 2000)
      << "the idle worker slept out its NoWork backoff";
}

TEST(FabricCampaign, ListenerIsOpenFromConstructionToDestruction) {
  // A worker started beside the backend connects on its first dial, before
  // run_with; the socket file goes with the backend even if run_with never
  // ran.
  const std::string socket = sock_path("listen");
  {
    fabric::SocketBackend backend(fast_fabric(small_spec(4), socket));
    EXPECT_TRUE(fabric::connect_unix(socket).valid());
  }
  EXPECT_NE(::access(socket.c_str(), F_OK), 0)
      << socket << " outlived the backend";
}

TEST(FabricCampaign, NoWorkersDegradesToLocalFallbackBitIdentically) {
  const fabric::SweepSpec spec = small_spec(10);
  const CampaignResult local = run_local(spec);

  fabric::FabricConfig fc = fast_fabric(spec, sock_path("fallback"));
  fc.worker_grace_ms = 100;  // don't wait long for a fleet that never comes
  const FabricRun run = run_fabric(spec, std::move(fc), {});

  expect_same_result(run.campaign, local);
  EXPECT_EQ(run.stats.local_fallback_trials, spec.trials);
  EXPECT_EQ(run.stats.leases_granted, 0u);
  // The degradation is visible in the campaign report as one kIo warning.
  bool warned = false;
  for (const TrialFailure& f : run.campaign.failures) {
    if (f.category == ErrorCategory::kIo && f.worker == "fcrd") warned = true;
  }
  EXPECT_TRUE(warned) << run.campaign.failure_report();
}

TEST(FabricCampaign, FallbackDisabledFailsTheCampaignInstead) {
  const fabric::SweepSpec spec = small_spec(4);
  fabric::FabricConfig fc = fast_fabric(spec, sock_path("nofallback"));
  fc.worker_grace_ms = 50;
  fc.allow_local_fallback = false;

  const fabric::Factories f = fabric::make_factories(spec);
  CampaignRunner runner(f.deploy, f.channel, f.algorithm,
                        fabric::campaign_config(spec));
  fabric::SocketBackend backend(std::move(fc));
  try {
    runner.run_with(backend);
    FAIL() << "expected kIo";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
}

TEST(FabricCampaign, ConfigHashMismatchIsRejectedBeforeScheduling) {
  // The backend is pinned to spec A; driving it with a campaign built from
  // spec B must fail loudly, not silently compute the wrong sweep.
  const fabric::SweepSpec spec_a = small_spec(6);
  fabric::SweepSpec spec_b = spec_a;
  spec_b.seed = spec_a.seed + 1;

  const fabric::Factories f = fabric::make_factories(spec_b);
  CampaignRunner runner(f.deploy, f.channel, f.algorithm,
                        fabric::campaign_config(spec_b));
  fabric::SocketBackend backend(fast_fabric(spec_a, sock_path("skew")));
  EXPECT_THROW(runner.run_with(backend), std::invalid_argument);
}

TEST(FabricCampaign, BackendValidatesItsConfig) {
  fabric::FabricConfig no_socket;
  no_socket.spec = small_spec(4);
  EXPECT_THROW(fabric::SocketBackend{no_socket}, std::invalid_argument);

  fabric::FabricConfig no_lease = fast_fabric(small_spec(4), sock_path("cfg"));
  no_lease.lease_trials = 0;
  EXPECT_THROW(fabric::SocketBackend{no_lease}, std::invalid_argument);
}

TEST(FabricCampaign, WorkerNamesFlowIntoFailureProvenance) {
  // A round budget of 1 makes every attempt a kTimeout failure, so every
  // trial quarantines — and every recorded failure must carry the identity
  // of the worker whose shard ran it (satellite: provenance).
  fabric::SweepSpec spec = small_spec(6);
  spec.round_budget = 1;
  spec.max_attempts = 2;
  const CampaignResult local = run_local(spec);

  const std::string socket = sock_path("prov");
  const FabricRun run =
      run_fabric(spec, fast_fabric(spec, socket),
                 {fast_worker(socket, "alpha"), fast_worker(socket, "beta")});

  EXPECT_EQ(run.campaign.quarantined, local.quarantined);
  EXPECT_EQ(run.campaign.quarantined, spec.trials);
  ASSERT_FALSE(run.campaign.failures.empty());
  for (const TrialFailure& f : run.campaign.failures) {
    if (f.trial == kNoIndex) continue;  // campaign-level warnings
    EXPECT_EQ(f.category, ErrorCategory::kTimeout);
    EXPECT_TRUE(f.worker == "alpha" || f.worker == "beta")
        << "failure lost its worker identity: '" << f.worker << "'";
  }
}

// ------------------------------------------------- transport fault schedule

class FabricFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FabricFaultTest, InjectedTransportFaultsPreserveBitIdentity) {
  if (!failpoint::enabled()) GTEST_SKIP() << "failpoints compiled out";
  const fabric::SweepSpec spec = small_spec(16);
  const CampaignResult local = run_local(spec);

  // Drops, duplicates, and heartbeat loss across every wire seam. The
  // registry is process-wide, so coordinator and worker threads fault
  // alike; the lease machinery must absorb all of it.
  ASSERT_EQ(failpoint::arm_from_spec("fabric/send=drop:hash=4,seed=11;"
                                     "fabric/recv=duplicate:hash=5,seed=7;"
                                     "fabric/heartbeat=drop:every=3"),
            3u);

  const std::string socket = sock_path("faults");
  fabric::FabricConfig fc = fast_fabric(spec, socket);
  fc.lease_timeout_ms = 300;  // recover quickly from dropped results
  const FabricRun run = run_fabric(spec, std::move(fc),
                                   {fast_worker(socket, "f#1"),
                                    fast_worker(socket, "f#2"),
                                    fast_worker(socket, "f#3")});
  failpoint::disarm_all();

  expect_same_result(run.campaign, local);
  EXPECT_EQ(run.stats.corrupt_results, 0u);
}

}  // namespace
}  // namespace fcr
