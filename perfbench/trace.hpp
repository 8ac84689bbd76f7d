// Span recording for the benchmark's traced run.
//
// Every span is recorded from the benchmark's own side of a call into the
// library: around the three factories it hands to a runner, inside a
// forwarding ChannelAdapter, and around each runner entry. Nothing inside
// src/ is instrumented, so the untraced timed run executes exactly the code
// a user runs.
//
// Each span carries a steady-clock and a thread-CPU reading at both ends.
// The CPU readings let the analysis tell a thread that was working from a
// thread that was blocked (a campaign's chunk barrier, the end of a
// campaign), which the wall clock alone cannot.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/channel_adapter.hpp"
#include "sim/runner.hpp"
#include "sinr/channel.hpp"

namespace perfbench {

/// A steady-clock and a thread-CPU reading taken together, in ns.
struct Stamp {
  std::int64_t wall = 0;
  std::int64_t cpu = 0;
};
Stamp stamp_now();
std::int64_t wall_now();
std::int64_t process_cpu_now();
std::int64_t thread_cpu_now();

enum class Kind : std::uint8_t {
  kDeploy,
  kChannelBuild,
  kAlgorithmBuild,
  kResolveMask,  ///< ChannelAdapter::resolve_mask
  kResolveIds,   ///< ChannelAdapter::resolve (id vectors)
};
const char* kind_name(Kind kind);

struct Span {
  Kind kind = Kind::kDeploy;
  Stamp start;
  Stamp end;
  std::uint32_t transmitters = 0;
  std::uint32_t listeners = 0;
  std::uint32_t nodes = 0;  ///< deployment size (deploy spans)
};

/// One runner entry made by the benchmark on its main thread.
struct RunnerCall {
  std::string name;  ///< "CampaignRunner::run", ...
  std::size_t threads = 1;
  Stamp start;
  Stamp end;
  /// CPU clock of every other traced thread, read right after the call
  /// returned: closes the last trial those threads ran inside the call.
  std::vector<std::pair<std::uint32_t, std::int64_t>> thread_cpu_at_end;
};

/// A resolve call kept for replay through a standalone BatchResolver
/// (the adapter's own resolver is private; its filter statistics are
/// recovered by replaying sampled rounds). Only rounds the adapter sends
/// through its BatchResolver are kept: every resolve_mask call, and
/// id-vector calls with at least SinrChannelAdapter::kSmallRoundCutover
/// transmitters (smaller ones take the filterless scan).
struct ResolveSample {
  fcr::Deployment dep;
  fcr::SinrChannel channel;
  bool mask = false;
  std::vector<std::uint64_t> transmit_words, listen_words;
  std::vector<fcr::NodeId> transmitters, listeners;
};

/// Process-wide span store. Each thread appends to its own log; logs are
/// read only while no runner call is in flight.
class Trace {
 public:
  static Trace& instance();

  /// Drops every recorded span, runner call and sample (threads stay
  /// registered).
  void clear();

  void record(const Span& span);

  void add_call(RunnerCall call);
  /// Fills call.thread_cpu_at_end for every traced thread but the caller.
  void close_call(RunnerCall& call);

  /// Keeps every few eligible SINR resolves for replay, up to a cap.
  bool want_sample();
  void add_sample(ResolveSample sample);

  struct ThreadLog {
    pthread_t handle{};
    clockid_t cpu_clock{};
    std::vector<Span> spans;
    std::uint64_t resolves_seen = 0;
  };
  const std::vector<std::unique_ptr<ThreadLog>>& logs() const { return logs_; }
  const std::vector<RunnerCall>& calls() const { return calls_; }
  const std::vector<ResolveSample>& samples() const { return samples_; }

 private:
  Trace() = default;
  ThreadLog& log();

  std::mutex m_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by m_ on insert
  std::vector<RunnerCall> calls_;                 // main thread only
  std::vector<ResolveSample> samples_;            // guarded by m_
};

/// Factory wrappers: record a span around every call the runner makes.
fcr::DeploymentFactory traced_factory(fcr::DeploymentFactory inner);
fcr::ChannelFactory traced_factory(fcr::ChannelFactory inner);
fcr::AlgorithmFactory traced_factory(fcr::AlgorithmFactory inner);

/// Forwarding adapter that times resolve() and resolve_mask(). It answers
/// every capability query with the wrapped adapter's answer, so the engine
/// picks the same round loop with or without it.
class TracingChannel final : public fcr::ChannelAdapter {
 public:
  explicit TracingChannel(std::unique_ptr<fcr::ChannelAdapter> inner);

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
  void resolve(const fcr::Deployment& dep,
               std::span<const fcr::NodeId> transmitters,
               std::span<const fcr::NodeId> listeners,
               std::span<fcr::Feedback> out) const override;
  void resolve_mask(const fcr::Deployment& dep,
                    std::span<const std::uint64_t> transmit_words,
                    std::span<const std::uint64_t> listen_words,
                    std::size_t transmitter_count,
                    std::span<std::uint64_t> received) const override;

 private:
  std::unique_ptr<fcr::ChannelAdapter> inner_;
  const fcr::SinrChannel* sinr_ = nullptr;  ///< set when inner is SINR
};

/// Runs `fn` as one runner call on the calling thread and records it.
template <class Fn>
auto traced_call(RunnerCall call, Fn&& fn) {
  Trace& trace = Trace::instance();
  call.start = stamp_now();
  auto result = fn();
  call.end = stamp_now();
  trace.close_call(call);
  trace.add_call(std::move(call));
  return result;
}

// ------------------------------------------------------------- analysis

/// One trial, bracketed by consecutive deployment-factory calls on one
/// thread (or the runner call's return). All times in ns of wall clock.
struct TrialRecord {
  std::uint32_t thread = 0;
  std::size_t call = 0;  ///< index into Trace::calls()
  std::int64_t start = 0;
  std::int64_t end = 0;   ///< bracket end minus the blocked tail
  std::int64_t wait = 0;  ///< blocked tail: the thread was off-CPU
  std::int64_t deploy = 0, channel_build = 0, algorithm_build = 0;
  std::int64_t engine = 0;  ///< last factory exit -> trial end
  std::int64_t resolve_mask = 0, resolve_ids = 0;
  std::int64_t unattributed = 0;
  std::size_t resolves = 0;
  std::uint64_t transmitters = 0, listeners = 0;
  std::uint32_t nodes = 0;

  std::int64_t span() const { return end - start; }
  std::int64_t resolve_total() const { return resolve_mask + resolve_ids; }
  std::int64_t engine_self() const { return engine - resolve_total(); }
};

struct Analysis {
  std::vector<TrialRecord> trials;
  std::vector<std::int64_t> resolve_ns;        ///< resolve spans
  std::vector<std::int64_t> channel_build_ns;  ///< channel adapter builds
  std::size_t violations = 0;
  std::string first_violation;
};

/// Rebuilds trials from the recorded spans and reconciles each one: its
/// child spans (factories, engine) plus the unattributed gaps must tile
/// the trial span exactly, with every resolve inside the engine span.
Analysis analyze(const Trace& trace);

/// Writes every span (recorded and derived) as tab-separated rows: name,
/// start, end, parent, trial, thread.
void write_spans(const Trace& trace, const Analysis& analysis,
                 const std::string& path);

}  // namespace perfbench
