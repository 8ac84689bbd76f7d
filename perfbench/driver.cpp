// perfbench driver: runs one benchmark workload in this process and prints
// its metrics as one JSON line (the last line of standard output).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --workdir DIR [--spans FILE]
//
// Every workload is a closed loop: runner calls ("batches") follow each
// other until --seconds have passed, and inside a call the next trial
// starts when a worker frees. Batch k takes its inputs from a seed derived
// from (--seed, k), handed to the library only as a SweepSpec seed. After
// the timed region the run checks its outputs; with --trace 1 it replays
// the same batches with spans recorded around its own calls into each
// layer (trace.hpp) and prints the per-layer metrics instead of the
// end-to-end ones.
//
// README.md in this directory documents workloads, metrics and checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/spec.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "sim/campaign.hpp"
#include "sim/runner.hpp"
#include "sinr/batch.hpp"
#include "trace.hpp"
#include "util/rng_lanes.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Trial threads per workload process (nproc = 4 is shared with the rest
// of the machine; the fabric adds its coordinator as a third thread).
constexpr std::size_t kTrialThreads = 2;
constexpr std::size_t kSetupRepeats = 15;
constexpr std::size_t kCodecRepeats = 9;

// SINR campaigns: fcrsim's default spec at n = 4096, 64 trials a campaign
// (four checkpoint chunks of fcrsim's default 16).
constexpr std::size_t kSinrN = 4096;
constexpr std::size_t kSinrBatch = 64;
// Trials solve in about 21 rounds, so this budget never trips; its only
// effect is the watchdog's stop_when hook.
constexpr std::uint64_t kRoundBudget = 100000;

// Fabric: n = 1024, default 8 trials per lease, two in-process workers.
constexpr std::size_t kFabricN = 1024;
constexpr std::size_t kFabricBatch = 256;
constexpr std::size_t kFabricWorkers = 2;
constexpr std::size_t kLocalCheckEvery = 4;

// Reference check: the first trials of every batch are re-run serially.
constexpr std::size_t kCheckPrefix = 2;
// The traced run fails when more of the trial time than this is covered
// by no span (trace.unattributed_share).
constexpr double kUnattributedTolerance = 0.02;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string spans;
  bool corrupt_digest = false;       // self-test hook
  bool force_local_fallback = false;  // self-test hook
  bool selftest_wrapper = false;      // self-test hook
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of batch k; the set-up runs use k = kSetupSeedIndex.
std::uint64_t batch_seed(std::uint64_t seed, std::size_t k) {
  return mix64(mix64(seed) + k);
}
constexpr std::size_t kSetupSeedIndex = 1u << 30;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A numeric field of /proc/self/status ("VmHWM:", "Threads:"), or 0.
double proc_status(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) return std::atof(line.c_str() + len);
  }
  return 0.0;
}

/// Peak resident set of this process image. VmHWM starts afresh at exec,
/// unlike getrusage's ru_maxrss, which keeps the launching process's peak.
double peak_rss_mb() { return proc_status("VmHWM:") / 1024.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------- outcomes

/// What one runner call produced.
struct BatchResult {
  std::uint64_t seed = 0;
  fcr::TrialSetResult result;
  std::size_t quarantined = 0;
  std::size_t retried = 0;
  std::size_t timeouts = 0;  ///< trials with a watchdog failure record
  std::size_t checkpoints = 0;
  // Fabric only.
  fcr::fabric::SocketBackend::Stats fabric;
  fcr::fabric::WorkerStats workers;
  std::int64_t wall_ns = 0;
  std::int64_t coordinator_cpu_ns = 0;
  std::int64_t worker_cpu_ns = 0;
};

BatchResult from_campaign(std::uint64_t seed, const fcr::CampaignResult& c) {
  BatchResult b;
  b.seed = seed;
  b.result = c.result;
  b.quarantined = c.quarantined;
  b.retried = c.retried;
  b.checkpoints = c.checkpoints_written;
  std::vector<std::size_t> timed_out;
  for (const fcr::TrialFailure& f : c.failures) {
    if (f.trial != fcr::kNoIndex && f.category == fcr::ErrorCategory::kTimeout) {
      timed_out.push_back(f.trial);
    }
  }
  std::sort(timed_out.begin(), timed_out.end());
  b.timeouts = static_cast<std::size_t>(
      std::unique(timed_out.begin(), timed_out.end()) - timed_out.begin());
  return b;
}

/// FNV-1a over every batch's (seed, solved count, rounds).
std::uint64_t digest(const std::vector<BatchResult>& batches) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const BatchResult& b : batches) {
    mix(b.seed);
    mix(b.result.trials);
    mix(b.result.solved);
    for (const std::uint64_t r : b.result.rounds) mix(r);
  }
  return h;
}

/// Per-trial (solved, rounds) comparison of the first `prefix` trials.
/// Trials are aligned only when both sides solved every trial; a side
/// with unsolved trials is reported by the unsolved count instead.
std::size_t mismatches(const fcr::TrialSetResult& got,
                       const fcr::TrialSetResult& want, std::size_t prefix) {
  prefix = std::min({prefix, got.trials, want.trials});
  if (got.solved != got.trials || want.solved != want.trials) return 0;
  std::size_t bad = 0;
  for (std::size_t t = 0; t < prefix; ++t) {
    if (got.rounds[t] != want.rounds[t]) ++bad;
  }
  return bad;
}

/// Failure tally, by cause.
struct Failures {
  std::size_t unsolved = 0;
  std::size_t quarantined = 0;
  std::size_t watchdog_timeout = 0;
  std::size_t fabric_local_fallback = 0;
  std::size_t digest_mismatch = 0;
  std::string reason;  ///< first failure, one line

  std::size_t total() const {
    return unsolved + quarantined + watchdog_timeout + fabric_local_fallback +
           digest_mismatch;
  }
  void note(std::size_t& counter, std::size_t n, const std::string& why) {
    if (n == 0) return;
    counter += n;
    if (reason.empty()) reason = why;
  }
};

void tally_outcomes(const std::vector<BatchResult>& batches, Failures& f) {
  for (const BatchResult& b : batches) {
    const std::string where = "batch seed " + std::to_string(b.seed);
    const std::size_t unsolved = b.result.trials - b.result.solved - b.quarantined;
    f.note(f.unsolved, unsolved,
           std::to_string(unsolved) + " trial(s) unsolved at max_rounds in " + where);
    f.note(f.quarantined, b.quarantined,
           std::to_string(b.quarantined) + " trial(s) quarantined in " + where);
    f.note(f.watchdog_timeout, b.timeouts,
           std::to_string(b.timeouts) + " watchdog timeout(s) in " + where);
    f.note(f.fabric_local_fallback, b.fabric.local_fallback_trials,
           "fabric local fallback ran " +
               std::to_string(b.fabric.local_fallback_trials) + " trial(s) in " + where);
  }
}

// ------------------------------------------------------------ workloads

using fcr::fabric::Factories;
using fcr::fabric::SweepSpec;

/// The spec's factory triple, with spans around every call when `traced`.
Factories spec_factories(const SweepSpec& spec, bool traced) {
  Factories f = fcr::fabric::make_factories(spec);
  if (traced) {
    f.deploy = traced_factory(std::move(f.deploy));
    f.channel = traced_factory(std::move(f.channel));
    f.algorithm = traced_factory(std::move(f.algorithm));
  }
  return f;
}

/// `fn()`, recorded as one runner call named `name` when `traced`.
template <class Fn>
auto maybe_traced(bool traced, const char* name, std::size_t threads, Fn&& fn) {
  if (!traced) return fn();
  RunnerCall call;
  call.name = name;
  call.threads = threads;
  return traced_call(std::move(call), std::forward<Fn>(fn));
}

/// A LocalBackend campaign of `spec` on kTrialThreads threads, with a
/// checkpoint file at `checkpoint` (none when empty).
fcr::CampaignResult local_campaign(const SweepSpec& spec, bool traced,
                                   const std::string& checkpoint) {
  const Factories f = spec_factories(spec, traced);
  fcr::CampaignConfig cc = fcr::fabric::campaign_config(spec);
  cc.threads = kTrialThreads;
  cc.checkpoint.path = checkpoint;
  fcr::CampaignRunner runner(f.deploy, f.channel, f.algorithm, cc);
  return maybe_traced(traced, "CampaignRunner::run", kTrialThreads,
                      [&] { return runner.run(); });
}

/// Serial run_trials reference for the first `prefix` trials of `spec`.
fcr::TrialSetResult serial_reference(SweepSpec spec, std::size_t prefix) {
  spec.trials = prefix;
  spec.round_budget = 0;
  const Factories f = spec_factories(spec, false);
  return fcr::run_trials(f.deploy, f.channel, f.algorithm,
                         fcr::fabric::campaign_config(spec).trial);
}

class Workload {
 public:
  explicit Workload(const Options& opts) : opts_(opts) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One set-up: everything the timed region needs, plus one warm-up
  /// trial per worker.
  virtual void setup() = 0;
  /// Runs batch k (one runner call) and returns its outcome.
  virtual BatchResult run_batch(std::size_t k, bool traced) = 0;
  /// Workload-specific output checks (beyond the serial prefix check).
  virtual void check(const std::vector<BatchResult>& batches, Failures& f) = 0;
  /// The spec of the batch with seed `seed`.
  virtual SweepSpec spec(std::uint64_t seed) const = 0;
  virtual std::size_t trials_per_call() const = 0;
  /// Trial threads and sockets the timed region uses.
  virtual std::size_t threads() const { return kTrialThreads; }
  virtual std::size_t sockets() const { return 0; }

 protected:
  const Options& opts_;
};

class SinrCampaign final : public Workload {
 public:
  SinrCampaign(const Options& opts, bool watchdog)
      : Workload(opts), watchdog_(watchdog) {}

  SweepSpec spec(std::uint64_t seed) const override {
    SweepSpec s;
    s.n = kSinrN;
    s.trials = kSinrBatch;
    s.seed = seed;
    s.round_budget = watchdog_ ? kRoundBudget : 0;
    return s;
  }

  void setup() override {
    SweepSpec s = spec(batch_seed(opts_.seed, kSetupSeedIndex));
    s.trials = kTrialThreads;
    const auto r = local_campaign(s, false, opts_.workdir + "/setup.ckpt");
    if (r.result.solved != r.result.trials) {
      throw std::runtime_error("set-up warm-up trial unsolved");
    }
  }

  BatchResult run_batch(std::size_t k, bool traced) override {
    const std::uint64_t seed = batch_seed(opts_.seed, k);
    return from_campaign(seed, local_campaign(spec(seed), traced, checkpoint()));
  }

  void check(const std::vector<BatchResult>& batches, Failures& f) override {
    // The last campaign's final checkpoint must hold its outcomes.
    const BatchResult& last = batches.back();
    const std::uint64_t hash =
        fcr::campaign_config_hash(fcr::fabric::campaign_config(spec(last.seed)));
    std::string why;
    const auto ckpt = fcr::load_checkpoint(checkpoint(), &hash, &why);
    std::size_t bad = 0;
    if (!ckpt || ckpt->entries.size() != last.result.trials) {
      bad = last.result.trials;
      why = "final checkpoint unusable: " + (ckpt ? std::string("wrong entry count") : why);
    } else if (last.result.solved == last.result.trials) {
      for (const fcr::CheckpointEntry& e : ckpt->entries) {
        if (!e.solved || e.rounds != last.result.rounds[e.trial]) ++bad;
      }
      why = std::to_string(bad) + " checkpoint entries differ from the campaign result";
    }
    f.note(f.digest_mismatch, bad, "digest mismatch: " + why);

    if (!watchdog_) return;
    // The watchdog only reroutes trials through the materializing loop:
    // outcomes must equal the unwatched campaign trial for trial.
    for (const BatchResult& b : batches) {
      SweepSpec plain_spec = spec(b.seed);
      plain_spec.round_budget = 0;
      const auto plain = local_campaign(plain_spec, false, opts_.workdir + "/check.ckpt");
      const std::size_t n = mismatches(b.result, plain.result, kSinrBatch) +
                            (b.result.solved != plain.result.solved ? 1 : 0);
      f.note(f.digest_mismatch, n,
             "digest mismatch: watchdog campaign differs from sinr-campaign-4096 "
             "in batch seed " + std::to_string(b.seed));
    }
  }

  std::size_t trials_per_call() const override { return kSinrBatch; }

 private:
  std::string checkpoint() const { return opts_.workdir + "/campaign.ckpt"; }

  bool watchdog_;
};

class Fabric final : public Workload {
 public:
  explicit Fabric(const Options& opts)
      : Workload(opts), socket_(opts.workdir + "/fabric.sock") {}

  SweepSpec spec(std::uint64_t seed) const override {
    SweepSpec s;
    s.n = kFabricN;
    s.trials = kFabricBatch;
    s.seed = seed;
    return s;
  }

  /// One fabric campaign: a SocketBackend on the driver's thread and
  /// `workers` fcr::fabric::run_worker threads dialing in.
  BatchResult campaign(const SweepSpec& s, std::size_t lease_trials,
                       std::size_t workers, bool traced, std::size_t max_leases = 0) {
    const Factories f = spec_factories(s, traced);
    fcr::CampaignConfig cc = fcr::fabric::campaign_config(s);
    fcr::CampaignRunner runner(f.deploy, f.channel, f.algorithm, cc);
    fcr::fabric::FabricConfig fc;
    fc.socket_path = socket_;
    fc.spec = s;
    fc.lease_trials = lease_trials;
    if (workers == 0) fc.worker_grace_ms = 100;

    std::vector<fcr::fabric::WorkerStats> stats(workers);
    std::vector<std::int64_t> cpu(workers, 0);
    std::vector<int> clean(workers, 0);
    BatchResult b;
    b.seed = s.seed;
    {
      // Declared before the backend so the workers are joined after the
      // backend's destructor has sent its final Shutdown.
      struct Joiner {
        std::vector<std::thread> threads;
        ~Joiner() {
          for (auto& t : threads) t.join();
        }
      } joiner;
      fcr::fabric::SocketBackend backend(fc);
      for (std::size_t w = 0; w < workers; ++w) {
        joiner.threads.emplace_back([&, w] {
          fcr::fabric::WorkerConfig wc;
          wc.socket_path = socket_;
          wc.name = "perfbench-w" + std::to_string(w);
          // The listener opens inside run_with; dial often until it does.
          wc.connect_retry_ms = 1;
          wc.connect_attempts = 5000;
          wc.max_leases = max_leases;
          try {
            clean[w] = fcr::fabric::run_worker(wc, &stats[w]) ? 1 : 0;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: worker %zu: %s\n", w, e.what());
          }
          cpu[w] = thread_cpu_now();
        });
      }
      const std::int64_t w0 = wall_now();
      const std::int64_t c0 = thread_cpu_now();
      const fcr::CampaignResult r =
          maybe_traced(traced, "CampaignRunner::run_with(SocketBackend)", workers,
                       [&] { return runner.run_with(backend); });
      b = from_campaign(s.seed, r);
      b.wall_ns = wall_now() - w0;
      b.coordinator_cpu_ns = thread_cpu_now() - c0;
      b.fabric = backend.stats();
    }
    for (std::size_t w = 0; w < workers; ++w) {
      if (clean[w] == 0) throw std::runtime_error("fabric worker did not exit cleanly");
      b.workers.resends += stats[w].resends;
      b.workers.reconnects += stats[w].reconnects;
      b.worker_cpu_ns += cpu[w];
    }
    return b;
  }

  void setup() override {
    // One lease of one trial per worker; each worker leaves after its
    // lease, so no worker sleeps out a NoWork backoff inside set-up.
    SweepSpec s = spec(batch_seed(opts_.seed, kSetupSeedIndex));
    s.trials = kFabricWorkers;
    const auto b = campaign(s, 1, kFabricWorkers, false, 1);
    if (b.result.solved != b.result.trials) {
      throw std::runtime_error("set-up warm-up trial unsolved");
    }
  }

  BatchResult run_batch(std::size_t k, bool traced) override {
    const std::size_t workers =
        opts_.force_local_fallback && k == 0 ? 0 : kFabricWorkers;
    return campaign(spec(batch_seed(opts_.seed, k)),
                    fcr::fabric::FabricConfig{}.lease_trials, workers, traced);
  }

  void check(const std::vector<BatchResult>& batches, Failures& f) override {
    // The fabric must compute what a local campaign of its spec computes;
    // every kLocalCheckEvery-th campaign is compared. In a traced run these
    // local campaigns are traced: they attribute the trial time the workers
    // spend in factories, resolve and the engine.
    for (std::size_t i = 0; i < batches.size(); i += kLocalCheckEvery) {
      const BatchResult& b = batches[i];
      const auto local = local_campaign(spec(b.seed), opts_.trace, "");
      const std::size_t n = mismatches(b.result, local.result, kFabricBatch) +
                            (b.result.solved != local.result.solved ? 1 : 0);
      f.note(f.digest_mismatch, n,
             "digest mismatch: fabric campaign differs from the local campaign "
             "in batch seed " + std::to_string(b.seed));
    }
  }

  std::size_t trials_per_call() const override { return kFabricBatch; }
  std::size_t threads() const override { return kFabricWorkers; }
  std::size_t sockets() const override { return kFabricWorkers; }

 private:
  std::string socket_;
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "sinr-campaign-4096") {
    return std::make_unique<SinrCampaign>(opts, false);
  }
  if (opts.workload == "sinr-watchdog-4096") {
    return std::make_unique<SinrCampaign>(opts, true);
  }
  if (opts.workload == "fabric-1024") return std::make_unique<Fabric>(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

// ---------------------------------------------------- per-layer metrics

/// Median time of one call of `fn`, over kCodecRepeats blocks.
template <class Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> blocks;
  for (std::size_t b = 0; b < kCodecRepeats; ++b) {
    const std::int64_t t0 = wall_now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    blocks.push_back(static_cast<double>(wall_now() - t0) / 1e3 /
                     static_cast<double>(reps));
  }
  return median(blocks);
}

/// Wire framing and checkpoint codec cost of one lease, on the lease's
/// real payloads: request, grant, shard result and ack frames, each
/// encoded, framed, extracted and decoded.
std::pair<double, double> lease_codec_us(const SweepSpec& s, const BatchResult& b) {
  using namespace fcr::fabric;
  const std::uint64_t hash = fcr::campaign_config_hash(campaign_config(s));
  const std::size_t lease = FabricConfig{}.lease_trials;
  fcr::CheckpointData shard;
  shard.config_hash = hash;
  shard.total_trials = s.trials;
  for (std::size_t t = 0; t < lease && t < b.result.rounds.size(); ++t) {
    shard.entries.push_back(fcr::CheckpointEntry{t, true, false, b.result.rounds[t], 1});
  }
  LeaseGrantMsg grant;
  grant.lease = 1;
  grant.config_hash = hash;
  for (std::size_t t = 0; t < lease; ++t) grant.trials.push_back(t);
  grant.spec = serialize_spec(s);
  const std::string checkpoint = fcr::serialize_checkpoint(shard);

  std::size_t sink = 0;
  const auto roundtrip = [&sink](MsgType type, const std::string& payload) {
    std::string wire = encode_frame(Frame{type, payload});
    const auto frame = extract_frame(wire);
    sink += frame ? frame->payload.size() : 0;
    return frame ? frame->payload : std::string();
  };
  const double frame_us = median_us(200, [&] {
    roundtrip(MsgType::kLeaseRequest, {});
    sink += decode_lease_grant(roundtrip(MsgType::kLeaseGrant, encode_lease_grant(grant))).trials.size();
    sink += decode_shard_result(roundtrip(MsgType::kShardResult,
                                          encode_shard_result({1, checkpoint, {}})))
                .checkpoint.size();
    sink += decode_result_ack(roundtrip(MsgType::kResultAck, encode_result_ack({1}))).lease;
  });
  const double codec_us = median_us(200, [&] {
    std::string why;
    const auto parsed = fcr::parse_checkpoint(fcr::serialize_checkpoint(shard), &hash, &why);
    sink += parsed ? parsed->entries.size() : 0;
  });
  if (sink == 0) throw std::runtime_error("lease codec produced nothing");
  return {frame_us, codec_us};
}

double checkpoint_write_ms(const Options& opts, std::size_t entries) {
  fcr::CheckpointData data;
  data.config_hash = 1;
  data.total_trials = entries;
  for (std::size_t t = 0; t < entries; ++t) {
    data.entries.push_back(fcr::CheckpointEntry{t, true, false, 21, 1});
  }
  const std::string path = opts.workdir + "/write-timing.ckpt";
  const double us = median_us(5, [&] { fcr::write_checkpoint(path, data); });
  std::remove(path.c_str());
  return us / 1e3;
}

/// Exact-fallback share of the certified filter, from replaying the
/// sampled SINR resolves through a standalone BatchResolver. Id-vector
/// rounds below the adapter's kSmallRoundCutover take the filterless scan
/// and are never sampled, so the share covers batch-path rounds only.
double filter_fallback_share(const Trace& trace) {
  std::size_t listeners = 0, fallbacks = 0;
  for (const ResolveSample& s : trace.samples()) {
    fcr::BatchResolver resolver(s.channel);
    if (s.mask) {
      std::vector<std::uint64_t> received(s.listen_words.size());
      resolver.resolve_mask(s.dep, s.transmit_words, s.listen_words, received);
    } else {
      std::vector<fcr::Reception> out;
      resolver.resolve(s.dep, s.transmitters, s.listeners, out);
    }
    listeners += resolver.last_stats().listeners;
    fallbacks += resolver.last_stats().exact_fallbacks;
  }
  return ratio(static_cast<double>(fallbacks), static_cast<double>(listeners));
}

struct TracedRun {
  std::vector<BatchResult> batches;
  std::vector<double> overhead;  ///< per batch: untraced / traced rate - 1
};

Metrics layer_metrics(const Options& opts, const Workload& wl,
                      const Trace& trace, const Analysis& an,
                      const TracedRun& traced) {
  Metrics m;
  const auto ms = [](double ns) { return ns / 1e6; };
  const auto& trials = an.trials;
  const double n_trials = static_cast<double>(trials.size());
  double total = 0, deploy = 0, engine_self = 0;
  double mask = 0, ids = 0, unattributed = 0;
  double resolves = 0, tx = 0, listeners = 0, node_rounds = 0;
  std::vector<double> trial_ms;
  for (const TrialRecord& t : trials) {
    total += static_cast<double>(t.span());
    deploy += static_cast<double>(t.deploy);
    engine_self += static_cast<double>(t.engine_self());
    mask += static_cast<double>(t.resolve_mask);
    ids += static_cast<double>(t.resolve_ids);
    unattributed += static_cast<double>(t.unattributed);
    resolves += static_cast<double>(t.resolves);
    tx += static_cast<double>(t.transmitters);
    listeners += static_cast<double>(t.listeners);
    trial_ms.push_back(ms(static_cast<double>(t.span())));
  }
  // Rounds come from the outcomes of the traced runner calls; when the
  // traced trials are the fabric's local comparison campaigns, from those.
  double rounds = 0, outcome_trials = 0, unsolved = 0;
  for (const BatchResult& b : traced.batches) {
    for (const std::uint64_t r : b.result.rounds) rounds += static_cast<double>(r);
    outcome_trials += static_cast<double>(b.result.trials);
    unsolved += static_cast<double>(b.result.trials - b.result.solved);
  }
  const double rounds_per_trial = ratio(rounds, outcome_trials);
  double mean_nodes = 0;
  for (const TrialRecord& t : trials) mean_nodes += static_cast<double>(t.nodes);
  mean_nodes = ratio(mean_nodes, n_trials);
  node_rounds = mean_nodes * rounds_per_trial * n_trials;

  std::vector<double> resolve_us;
  for (const std::int64_t d : an.resolve_ns) resolve_us.push_back(static_cast<double>(d) / 1e3);
  double build_ns = 0;
  for (const std::int64_t d : an.channel_build_ns) build_ns += static_cast<double>(d);

  m["deploy.ms_per_trial"] = {ms(ratio(deploy, n_trials)), "ms/trial"};
  m["deploy.share"] = {ratio(deploy, total), "fraction"};
  m["sinr.channel_build_ms"] = {ms(ratio(build_ns, static_cast<double>(an.channel_build_ns.size()))), "ms"};
  m["sinr.resolve_calls_per_trial"] = {ratio(resolves, n_trials), "calls/trial"};
  m["sinr.transmitters_per_trial"] = {ratio(tx, n_trials), "nodes/trial"};
  m["sinr.listeners_per_trial"] = {ratio(listeners, n_trials), "nodes/trial"};
  m["sinr.resolve_us.p50"] = {percentile(resolve_us, 0.50), "us"};
  m["sinr.resolve_us.p99"] = {percentile(resolve_us, 0.99), "us"};
  m["sinr.resolve_us.samples"] = {static_cast<double>(resolve_us.size()), "count"};
  m["sinr.share"] = {ratio(mask + ids, total), "fraction"};
  m["sinr.resolve_mask_share"] = {ratio(mask, total), "fraction"};
  m["sinr.resolve_ids_share"] = {ratio(ids, total), "fraction"};
  m["sinr.filter_fallback_share"] = {filter_fallback_share(trace), "fraction"};

  m["sim.engine.rounds_per_trial"] = {rounds_per_trial, "rounds/trial"};
  m["sim.engine.self_ms_per_trial"] = {ms(ratio(engine_self, n_trials)), "ms/trial"};
  m["sim.engine.ns_per_node_round"] = {ratio(engine_self, node_rounds), "ns"};
  m["sim.engine.share"] = {ratio(engine_self, total), "fraction"};
  m["sim.engine.unsolved"] = {unsolved, "count"};

  // Campaign layer: trial latency, and how busy the trial threads were.
  double capacity = 0, busy = 0, campaigns = 0;
  for (std::size_t c = 0; c < trace.calls().size(); ++c) {
    const RunnerCall& call = trace.calls()[c];
    double in_call = 0;
    bool any = false;
    for (const TrialRecord& t : trials) {
      if (t.call != c) continue;
      in_call += static_cast<double>(t.span());
      any = true;
    }
    if (!any) continue;
    capacity += static_cast<double>(call.threads) *
                static_cast<double>(call.end.wall - call.start.wall);
    busy += in_call;
    campaigns += 1;
  }
  std::size_t checkpoints = 0, retried = 0, quarantined = 0;
  for (const BatchResult& b : traced.batches) {
    checkpoints += b.checkpoints;
    retried += b.retried;
    quarantined += b.quarantined;
  }
  m["sim.campaign.trial_ms.p50"] = {percentile(trial_ms, 0.50), "ms"};
  m["sim.campaign.trial_ms.p99"] = {percentile(trial_ms, 0.99), "ms"};
  m["sim.campaign.trial_ms.samples"] = {static_cast<double>(trial_ms.size()), "count"};
  m["sim.campaign.busy_share"] = {ratio(busy, capacity), "fraction"};
  m["sim.campaign.idle_ms"] = {ms(ratio(capacity - busy, campaigns)), "ms/campaign"};
  m["sim.campaign.checkpoints_written"] = {static_cast<double>(checkpoints), "count"};
  m["sim.campaign.retried"] = {static_cast<double>(retried), "count"};
  m["sim.campaign.quarantined"] = {static_cast<double>(quarantined), "count"};
  m["sim.campaign.checkpoint_write_ms"] = {checkpoint_write_ms(opts, wl.trials_per_call()), "ms"};

  // Fabric layer.
  fcr::fabric::SocketBackend::Stats fs;
  fcr::fabric::WorkerStats ws;
  double fabric_wall = 0, worker_cpu = 0, coord_cpu = 0, fabric_trials = 0;
  for (const BatchResult& b : traced.batches) {
    fs.leases_granted += b.fabric.leases_granted;
    fs.results_merged += b.fabric.results_merged;
    fs.duplicate_results += b.fabric.duplicate_results;
    fs.leases_expired += b.fabric.leases_expired;
    fs.worker_strikes += b.fabric.worker_strikes;
    fs.local_fallback_trials += b.fabric.local_fallback_trials;
    ws.resends += b.workers.resends;
    ws.reconnects += b.workers.reconnects;
    fabric_wall += static_cast<double>(b.wall_ns);
    worker_cpu += static_cast<double>(b.worker_cpu_ns);
    coord_cpu += static_cast<double>(b.coordinator_cpu_ns);
    if (b.wall_ns > 0) fabric_trials += static_cast<double>(b.result.trials);
  }
  const bool fabric = wl.sockets() > 0;
  m["fabric.leases_granted"] = {static_cast<double>(fs.leases_granted), "count"};
  m["fabric.results_merged"] = {static_cast<double>(fs.results_merged), "count"};
  m["fabric.duplicate_results"] = {static_cast<double>(fs.duplicate_results), "count"};
  m["fabric.leases_expired"] = {static_cast<double>(fs.leases_expired), "count"};
  m["fabric.worker_strikes"] = {static_cast<double>(fs.worker_strikes), "count"};
  m["fabric.local_fallback_trials"] = {static_cast<double>(fs.local_fallback_trials), "count"};
  m["fabric.worker_resends"] = {static_cast<double>(ws.resends), "count"};
  m["fabric.worker_reconnects"] = {static_cast<double>(ws.reconnects), "count"};
  m["fabric.worker_busy_share"] = {
      ratio(worker_cpu, static_cast<double>(wl.threads()) * fabric_wall), "fraction"};
  m["fabric.coordinator_cpu_ms_per_trial"] = {ms(ratio(coord_cpu, fabric_trials)), "ms/trial"};
  std::pair<double, double> codec{0.0, 0.0};
  if (fabric && !traced.batches.empty()) {
    const BatchResult& first = traced.batches.front();
    codec = lease_codec_us(wl.spec(first.seed), first);
  }
  m["fabric.frame_us_per_lease"] = {codec.first, "us"};
  m["fabric.checkpoint_codec_us_per_lease"] = {codec.second, "us"};

  m["trace.overhead"] = {median(traced.overhead), "fraction"};
  m["trace.unattributed_share"] = {ratio(unattributed, total), "fraction"};
  return m;
}

// ------------------------------------------------------------ self-test

/// Wrapping the channel adapter must leave a trial's outcome and round
/// loop unchanged: unobserved SINR trials take the bitmask loop
/// (resolve_mask only), trials with a stop_when hook the materializing
/// loop (id-vector resolve only).
int selftest_wrapper(const Options& opts) {
  int failures = 0;
  const auto fail = [&failures](const std::string& why) {
    std::printf("FAIL %s\n", why.c_str());
    ++failures;
  };
  struct Case {
    bool observed;
    Kind expect;
  };
  for (const Case c : {Case{false, Kind::kResolveMask}, Case{true, Kind::kResolveIds}}) {
    SweepSpec s;
    s.n = kFabricN;
    const auto f = fcr::fabric::make_factories(s);
    const fcr::Rng master(batch_seed(opts.seed, 7));
    for (std::size_t trial = 0; trial < 4; ++trial) {
      fcr::Rng deploy_rng = master.split(2 * trial);
      const fcr::Rng run_rng = master.split(2 * trial + 1);
      const fcr::Deployment dep = f.deploy(deploy_rng);
      const auto plain = f.channel(dep);
      const TracingChannel wrapped(f.channel(dep));
      const auto algorithm = f.algorithm(dep);
      const std::string where = std::string(c.observed ? "observed" : "unobserved") +
                                " trial " + std::to_string(trial);
      if (wrapped.provides_collision_detection() != plain->provides_collision_detection() ||
          wrapped.resolves_listeners_independently() != plain->resolves_listeners_independently() ||
          wrapped.supports_mask_resolve() != plain->supports_mask_resolve() ||
          wrapped.name() != plain->name()) {
        fail(where + ": capability answers differ");
      }
      fcr::EngineConfig ec;
      if (c.observed) ec.stop_when = [](const fcr::RoundView&) { return false; };
      const fcr::RunResult a = fcr::run_execution(dep, *algorithm, *plain, ec, run_rng);
      Trace::instance().clear();
      const fcr::RunResult b = fcr::run_execution(dep, *algorithm, wrapped, ec, run_rng);
      if (a.solved != b.solved || a.rounds != b.rounds || a.winner != b.winner) {
        fail(where + ": outcome differs under the wrapper");
      }
      std::size_t expected = 0, other = 0;
      for (const auto& log : Trace::instance().logs()) {
        for (const Span& span : log->spans) {
          (span.kind == c.expect ? expected : other) += 1;
        }
      }
      if (other != 0 || expected == 0) {
        fail(where + ": round loop changed (" + std::to_string(expected) +
             " expected-entry resolves, " + std::to_string(other) + " others)");
      }
    }
  }
  Trace::instance().clear();
  std::printf("wrapper self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// ----------------------------------------------------------------- main

/// Per-batch throughput and CPU cost. Each batch repeats the same kind of
/// work, so the medians over a run's batches shrug off the bursts of
/// interference a shared machine produces.
struct BatchTimes {
  std::vector<double> rate;              ///< trials per wall second
  std::vector<double> cpu_ms_per_trial;  ///< process CPU, all threads

  void run(Workload& wl, std::size_t k, bool traced,
           std::vector<BatchResult>& out) {
    const std::int64_t w0 = wall_now();
    const std::int64_t c0 = process_cpu_now();
    out.push_back(wl.run_batch(k, traced));
    const auto wall = static_cast<double>(wall_now() - w0);
    const auto cpu = static_cast<double>(process_cpu_now() - c0);
    const auto n = static_cast<double>(out.back().result.trials);
    rate.push_back(n * 1e9 / wall);
    cpu_ms_per_trial.push_back(cpu / 1e6 / n);
  }
};

std::vector<double> quartiles(const std::vector<double>& v) {
  return {percentile(v, 0.25), median(v), percentile(v, 0.75)};
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) out += (out.size() > 1 ? ", " : "") + json_number(x);
  return out + "]";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Options& opts) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a '" << PERFBENCH_BUILD_TYPE
              << "' build (Release only)\n";
    return 2;
  }
  if (opts.selftest_wrapper) return selftest_wrapper(opts);

  const auto wl = make_workload(opts);

  // Set-ups are spread over the run (one first, the rest between
  // batches, outside any batch's timing) so that a burst of interference
  // from the rest of the machine cannot skew all of them at once. The
  // first one also starts the thread pool and warms the workspaces.
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const std::int64_t s0 = wall_now();
    wl->setup();
    setups.push_back(static_cast<double>(wall_now() - s0) / 1e9);
  };
  timed_setup();

  // Timed region: batches until --seconds have passed. A traced run
  // follows every untraced batch with a traced replay of the same batch,
  // so the pair sees the same machine and trace.overhead compares like
  // with like.
  std::vector<BatchResult> batches;
  BatchTimes times;
  TracedRun traced;
  BatchTimes traced_times;
  Trace::instance().clear();
  const std::int64_t t0 = wall_now();
  const auto budget = static_cast<std::int64_t>(opts.seconds * 1e9);
  std::size_t k = 0;
  do {
    times.run(*wl, k, false, batches);
    if (opts.trace) {
      traced_times.run(*wl, k, true, traced.batches);
      traced.overhead.push_back(times.rate.back() / traced_times.rate.back() - 1.0);
    }
    ++k;
    const auto elapsed = static_cast<double>(wall_now() - t0);
    if (setups.size() < kSetupRepeats &&
        elapsed >= static_cast<double>(budget) * static_cast<double>(setups.size()) /
                       static_cast<double>(kSetupRepeats)) {
      timed_setup();
    }
  } while (wall_now() - t0 < budget);
  while (setups.size() < kSetupRepeats) timed_setup();
  const std::int64_t wall = wall_now() - t0;
  const double rss = peak_rss_mb();
  const auto threads_seen = static_cast<int>(proc_status("Threads:"));
  const std::size_t calls = batches.size();
  std::size_t trials = 0;
  for (const BatchResult& b : batches) trials += b.result.trials;
  const double tps = median(times.rate);

  Metrics e2e;
  e2e["trials_per_s"] = {tps, "trials/s"};
  e2e["cpu_ms_per_trial"] = {median(times.cpu_ms_per_trial), "ms/trial"};
  e2e["setup_s"] = {median(setups), "s"};
  e2e["peak_rss_mb"] = {rss, "MB"};

  std::cout << "{\"context\": {\"workload\": " << json_string(opts.workload)
            << ", \"seed\": " << opts.seed << ", \"build_type\": "
            << json_string(PERFBENCH_BUILD_TYPE) << ", \"lane_dispatch\": "
            << json_string(fcr::lane_dispatch() == fcr::LaneDispatch::kAvx2 ? "avx2" : "generic")
            << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
            << ", \"trial_threads\": " << wl->threads()
            << ", \"sockets\": " << wl->sockets()
            << ", \"os_threads\": " << threads_seen
            << ", \"runner_calls\": " << calls
            << ", \"timed_wall_s\": " << json_number(static_cast<double>(wall) / 1e9)
            << ", \"trials_per_wall_s\": " << json_number(static_cast<double>(trials) * 1e9 / static_cast<double>(wall))
            << ", \"setups_s\": " << json_list(setups)
            << ", \"batch_trials_per_s_quartiles\": " << json_list(quartiles(times.rate))
            << ", \"digest\": \"" << std::hex << digest(batches) << std::dec
            << "\"}}" << std::endl;

  if (opts.corrupt_digest && !batches.empty() && !batches.front().result.rounds.empty()) {
    batches.front().result.rounds.front() += 1;
  }

  Failures failures;
  if (opts.trace && digest(traced.batches) != digest(batches)) {
    failures.note(failures.digest_mismatch, 1,
                  "digest mismatch: traced run differs from the untraced run");
  }

  // Output checks.
  tally_outcomes(batches, failures);
  tally_outcomes(traced.batches, failures);
  for (const BatchResult& b : batches) {
    const std::size_t prefix = std::min(kCheckPrefix, b.result.trials);
    const fcr::TrialSetResult want = serial_reference(wl->spec(b.seed), prefix);
    std::size_t bad = mismatches(b.result, want, prefix);
    if (b.result.solved == b.result.trials && want.solved != want.trials) bad = prefix;
    failures.note(failures.digest_mismatch, bad,
                  "digest mismatch: " + std::to_string(bad) +
                      " trial(s) differ from serial run_trials in batch seed " +
                      std::to_string(b.seed));
  }
  wl->check(batches, failures);

  Metrics printed = e2e;
  if (opts.trace) {
    const Analysis an = analyze(Trace::instance());
    if (!opts.spans.empty()) write_spans(Trace::instance(), an, opts.spans);
    printed = layer_metrics(opts, *wl, Trace::instance(), an, traced);
    // Why the workload was chosen, checked against its own trace
    // (reported, not enforced: a later speed-up may shift the shares).
    const std::map<std::string, std::pair<std::string, double>> why = {
        {"sinr-campaign-4096", {"sinr.resolve_mask_share", 0.5}},
        {"sinr-watchdog-4096", {"sinr.resolve_ids_share", 0.5}}};
    if (const auto it = why.find(opts.workload); it != why.end()) {
      const double v = printed[it->second.first].value;
      std::cout << "{\"why\": {\"metric\": " << json_string(it->second.first)
                << ", \"at_least\": " << json_number(it->second.second)
                << ", \"value\": " << json_number(v) << ", \"holds\": "
                << (v >= it->second.second ? "true" : "false") << "}}" << std::endl;
    }
    std::cout << "{\"end_to_end\": {";
    bool first = true;
    for (const auto& [name, m] : e2e) {
      std::cout << (first ? "" : ", ") << json_string(name) << ": " << json_number(m.value);
      first = false;
    }
    std::cout << "}}" << std::endl;
    if (an.violations > 0) {
      std::cerr << "perfbench: FAIL " << opts.workload << ": trace does not reconcile ("
                << an.violations << " violation(s); first: " << an.first_violation << ")\n";
      print_result(false, trials, failures.total(), printed);
      return 1;
    }
    const double unattributed = printed["trace.unattributed_share"].value;
    if (unattributed > kUnattributedTolerance) {
      std::cerr << "perfbench: FAIL " << opts.workload << ": trace.unattributed_share "
                << unattributed << " exceeds " << kUnattributedTolerance << "\n";
      print_result(false, trials, failures.total(), printed);
      return 1;
    }
  }

  std::cout << "{\"failures_by_cause\": {\"unsolved\": " << failures.unsolved
            << ", \"quarantined\": " << failures.quarantined
            << ", \"watchdog_timeout\": " << failures.watchdog_timeout
            << ", \"fabric_local_fallback\": " << failures.fabric_local_fallback
            << ", \"digest_mismatch\": " << failures.digest_mismatch << "}}" << std::endl;
  const std::size_t failed = std::min(failures.total(), trials);
  if (failures.total() > 0) {
    std::cerr << "perfbench: FAIL " << opts.workload << ": " << failures.reason << "\n";
    print_result(false, trials, failed, printed);
    return 1;
  }
  print_result(true, trials, 0, printed);
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--workdir") o.workdir = value();
    else if (a == "--spans") o.spans = value();
    else if (a == "--corrupt-digest") o.corrupt_digest = true;
    else if (a == "--force-local-fallback") o.force_local_fallback = true;
    else if (a == "--selftest-wrapper") o.selftest_wrapper = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: FAIL: " << e.what() << "\n";
    return 1;
  }
}
