#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

std::int64_t read_clock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// SINR resolves kept for replay: one in this many, at most kMaxSamples.
constexpr std::uint64_t kSampleEvery = 8;
constexpr std::size_t kMaxSamples = 256;

}  // namespace

std::int64_t wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
std::int64_t process_cpu_now() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_now() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
Stamp stamp_now() { return Stamp{wall_now(), thread_cpu_now()}; }

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kDeploy: return "deploy";
    case Kind::kChannelBuild: return "channel.build";
    case Kind::kAlgorithmBuild: return "algorithm.build";
    case Kind::kResolveMask: return "resolve_mask";
    case Kind::kResolveIds: return "resolve";
  }
  return "?";
}

// ---------------------------------------------------------------- Trace

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

Trace::ThreadLog& Trace::log() {
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->handle = pthread_self();
    pthread_getcpuclockid(fresh->handle, &fresh->cpu_clock);
    fresh->spans.reserve(1 << 14);
    const std::lock_guard<std::mutex> lock(m_);
    mine = fresh.get();
    logs_.push_back(std::move(fresh));
  }
  return *mine;
}

void Trace::clear() {
  const std::lock_guard<std::mutex> lock(m_);
  for (auto& l : logs_) {
    l->spans.clear();
    l->resolves_seen = 0;
  }
  calls_.clear();
  samples_.clear();
}

void Trace::record(const Span& span) { log().spans.push_back(span); }

void Trace::add_call(RunnerCall call) { calls_.push_back(std::move(call)); }

void Trace::close_call(RunnerCall& call) {
  const pthread_t self = pthread_self();
  const std::lock_guard<std::mutex> lock(m_);
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    if (pthread_equal(logs_[i]->handle, self) != 0) continue;
    call.thread_cpu_at_end.emplace_back(static_cast<std::uint32_t>(i),
                                        read_clock(logs_[i]->cpu_clock));
  }
}

bool Trace::want_sample() {
  ThreadLog& mine = log();
  if (mine.resolves_seen++ % kSampleEvery != 0) return false;
  const std::lock_guard<std::mutex> lock(m_);
  return samples_.size() < kMaxSamples;
}

void Trace::add_sample(ResolveSample sample) {
  const std::lock_guard<std::mutex> lock(m_);
  if (samples_.size() < kMaxSamples) samples_.push_back(std::move(sample));
}

// ------------------------------------------------------------- wrappers

fcr::DeploymentFactory traced_factory(fcr::DeploymentFactory inner) {
  return [inner = std::move(inner)](fcr::Rng& rng) {
    Span span;
    span.kind = Kind::kDeploy;
    span.start = stamp_now();
    fcr::Deployment dep = inner(rng);
    span.end = stamp_now();
    span.nodes = static_cast<std::uint32_t>(dep.size());
    Trace::instance().record(span);
    return dep;
  };
}

fcr::ChannelFactory traced_factory(fcr::ChannelFactory inner) {
  return [inner = std::move(inner)](const fcr::Deployment& dep)
             -> std::unique_ptr<fcr::ChannelAdapter> {
    Span span;
    span.kind = Kind::kChannelBuild;
    span.start = stamp_now();
    auto channel = std::make_unique<TracingChannel>(inner(dep));
    span.end = stamp_now();
    Trace::instance().record(span);
    return channel;
  };
}

fcr::AlgorithmFactory traced_factory(fcr::AlgorithmFactory inner) {
  return [inner = std::move(inner)](const fcr::Deployment& dep) {
    Span span;
    span.kind = Kind::kAlgorithmBuild;
    span.start = stamp_now();
    auto algorithm = inner(dep);
    span.end = stamp_now();
    Trace::instance().record(span);
    return algorithm;
  };
}

TracingChannel::TracingChannel(std::unique_ptr<fcr::ChannelAdapter> inner)
    : inner_(std::move(inner)) {
  if (const auto* sinr =
          dynamic_cast<const fcr::SinrChannelAdapter*>(inner_.get())) {
    sinr_ = &sinr->channel();
  }
}

void TracingChannel::resolve(const fcr::Deployment& dep,
                             std::span<const fcr::NodeId> transmitters,
                             std::span<const fcr::NodeId> listeners,
                             std::span<fcr::Feedback> out) const {
  Span span;
  span.kind = Kind::kResolveIds;
  span.transmitters = static_cast<std::uint32_t>(transmitters.size());
  span.listeners = static_cast<std::uint32_t>(listeners.size());
  span.start = stamp_now();
  inner_->resolve(dep, transmitters, listeners, out);
  span.end = stamp_now();
  Trace& trace = Trace::instance();
  trace.record(span);
  // Below the cutover the adapter resolves with SinrChannel's scan, which
  // has no filter to replay.
  if (sinr_ != nullptr &&
      transmitters.size() >= fcr::SinrChannelAdapter::kSmallRoundCutover &&
      trace.want_sample()) {
    trace.add_sample(ResolveSample{
        dep, *sinr_, false, {}, {},
        std::vector<fcr::NodeId>(transmitters.begin(), transmitters.end()),
        std::vector<fcr::NodeId>(listeners.begin(), listeners.end())});
  }
}

void TracingChannel::resolve_mask(const fcr::Deployment& dep,
                                  std::span<const std::uint64_t> transmit_words,
                                  std::span<const std::uint64_t> listen_words,
                                  std::size_t transmitter_count,
                                  std::span<std::uint64_t> received) const {
  Span span;
  span.kind = Kind::kResolveMask;
  span.transmitters = static_cast<std::uint32_t>(transmitter_count);
  std::size_t listeners = 0;
  for (const std::uint64_t w : listen_words) {
    listeners += static_cast<std::size_t>(std::popcount(w));
  }
  span.listeners = static_cast<std::uint32_t>(listeners);
  span.start = stamp_now();
  inner_->resolve_mask(dep, transmit_words, listen_words, transmitter_count,
                       received);
  span.end = stamp_now();
  Trace& trace = Trace::instance();
  trace.record(span);
  if (sinr_ != nullptr && trace.want_sample()) {
    trace.add_sample(ResolveSample{
        dep, *sinr_, true,
        std::vector<std::uint64_t>(transmit_words.begin(), transmit_words.end()),
        std::vector<std::uint64_t>(listen_words.begin(), listen_words.end()),
        {}, {}});
  }
}

// ------------------------------------------------------------- analysis

namespace {

bool is_factory(Kind k) {
  return k == Kind::kDeploy || k == Kind::kChannelBuild ||
         k == Kind::kAlgorithmBuild;
}

/// Index of the runner call whose wall interval contains `t`, or npos.
std::size_t call_at(const std::vector<RunnerCall>& calls, std::int64_t t) {
  for (std::size_t c = 0; c < calls.size(); ++c) {
    if (calls[c].start.wall <= t && t <= calls[c].end.wall) return c;
  }
  return static_cast<std::size_t>(-1);
}

/// The thread's CPU clock when `call` returned.
std::int64_t cpu_at_call_end(const RunnerCall& call, std::uint32_t thread,
                             bool caller) {
  if (caller) return call.end.cpu;
  for (const auto& [t, cpu] : call.thread_cpu_at_end) {
    if (t == thread) return cpu;
  }
  return call.end.cpu;  // unreachable for a thread registered before the call
}

}  // namespace

Analysis analyze(const Trace& trace) {
  Analysis out;
  const auto& calls = trace.calls();
  const auto violation = [&out](const std::string& why) {
    if (out.violations++ == 0) out.first_violation = why;
  };

  for (std::uint32_t ti = 0; ti < trace.logs().size(); ++ti) {
    std::vector<Span> spans = trace.logs()[ti]->spans;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start.wall < b.start.wall;
    });
    const bool caller = pthread_equal(trace.logs()[ti]->handle,
                                      pthread_self()) != 0;
    std::size_t i = 0;
    while (i < spans.size()) {
      if (spans[i].kind != Kind::kDeploy) {
        violation(std::string(kind_name(spans[i].kind)) +
                  " span outside any trial bracket");
        ++i;
        continue;
      }
      const std::size_t call = call_at(calls, spans[i].start.wall);
      if (call == static_cast<std::size_t>(-1)) {
        violation("deployment span outside any runner call");
        ++i;
        continue;
      }
      // The trial's spans run up to the next deployment call of the same
      // runner call on this thread.
      std::size_t j = i + 1;
      while (j < spans.size() && spans[j].kind != Kind::kDeploy) ++j;
      Stamp boundary;
      if (j < spans.size() && spans[j].start.wall <= calls[call].end.wall) {
        boundary = spans[j].start;
      } else {
        boundary = Stamp{calls[call].end.wall,
                         cpu_at_call_end(calls[call], ti, caller)};
      }

      TrialRecord t;
      t.thread = ti;
      t.call = call;
      t.start = spans[i].start.wall;
      t.nodes = spans[i].nodes;
      Stamp last = spans[i].end;
      std::int64_t factories_end = spans[i].end.wall;
      std::int64_t prev_end = spans[i].start.wall;
      for (std::size_t k = i; k < j; ++k) {
        const Span& s = spans[k];
        const std::int64_t d = s.end.wall - s.start.wall;
        if (s.start.wall < prev_end || d < 0) {
          violation(std::string(kind_name(s.kind)) + " span overlaps its predecessor");
        }
        prev_end = s.end.wall;
        last = s.end;
        switch (s.kind) {
          case Kind::kDeploy: t.deploy += d; break;
          case Kind::kChannelBuild:
            t.channel_build += d;
            out.channel_build_ns.push_back(d);
            break;
          case Kind::kAlgorithmBuild: t.algorithm_build += d; break;
          case Kind::kResolveMask:
          case Kind::kResolveIds:
            (s.kind == Kind::kResolveMask ? t.resolve_mask : t.resolve_ids) += d;
            out.resolve_ns.push_back(d);
            ++t.resolves;
            t.transmitters += s.transmitters;
            t.listeners += s.listeners;
            break;
        }
        if (is_factory(s.kind)) {
          if (t.resolve_total() > 0) {
            violation(std::string(kind_name(s.kind)) + " span after a resolve");
          }
          factories_end = s.end.wall;
        }
      }
      if (boundary.wall < last.wall) {
        violation("trial bracket closes before its last span");
      }
      // Between the last recorded span and the bracket's end the thread
      // first finishes the trial, then blocks (chunk barrier, campaign
      // end). Off-CPU time in that gap is the blocked tail.
      const std::int64_t gap = std::max<std::int64_t>(boundary.wall - last.wall, 0);
      const std::int64_t off_cpu = (boundary.wall - last.wall) - (boundary.cpu - last.cpu);
      t.wait = std::clamp<std::int64_t>(off_cpu, 0, gap);
      t.end = boundary.wall - t.wait;
      t.engine = t.end - factories_end;
      t.unattributed =
          t.span() - (t.deploy + t.channel_build + t.algorithm_build + t.engine);
      if (t.engine < 0 || t.unattributed < 0) {
        violation("trial children do not tile the trial span");
      }
      if (t.engine < t.resolve_total()) {
        violation("resolve spans exceed the engine span");
      }
      out.trials.push_back(t);
      i = j;
    }
  }
  return out;
}

void write_spans(const Trace& trace, const Analysis& analysis,
                 const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return;
  const auto& calls = trace.calls();
  const std::int64_t origin = calls.empty() ? 0 : calls.front().start.wall;
  os << "id\tname\tstart_ns\tend_ns\tparent\ttrial\tthread\n";
  std::size_t next_id = 0;
  std::vector<std::size_t> call_ids;
  for (const RunnerCall& c : calls) {
    call_ids.push_back(next_id);
    os << next_id++ << '\t' << c.name << '\t' << c.start.wall - origin << '\t'
       << c.end.wall - origin << "\t-\t-\t-\n";
  }
  // Recorded spans, re-attached to their trial and engine spans.
  std::vector<std::vector<Span>> by_thread(trace.logs().size());
  for (std::size_t ti = 0; ti < trace.logs().size(); ++ti) {
    by_thread[ti] = trace.logs()[ti]->spans;
    std::sort(by_thread[ti].begin(), by_thread[ti].end(),
              [](const Span& a, const Span& b) { return a.start.wall < b.start.wall; });
  }
  std::vector<std::size_t> cursor(by_thread.size(), 0);
  for (std::size_t n = 0; n < analysis.trials.size(); ++n) {
    const TrialRecord& t = analysis.trials[n];
    const std::size_t trial_id = next_id++;
    os << trial_id << "\ttrial\t" << t.start - origin << '\t' << t.end - origin
       << '\t' << call_ids[t.call] << '\t' << n << '\t' << t.thread << '\n';
    const std::size_t engine_id = next_id++;
    os << engine_id << "\tengine\t" << t.end - t.engine - origin << '\t'
       << t.end - origin << '\t' << trial_id << '\t' << n << '\t' << t.thread
       << '\n';
    if (t.wait > 0) {
      os << next_id++ << "\twait\t" << t.end - origin << '\t'
         << t.end + t.wait - origin << '\t' << call_ids[t.call] << '\t' << n
         << '\t' << t.thread << '\n';
    }
    auto& spans = by_thread[t.thread];
    std::size_t& k = cursor[t.thread];
    while (k < spans.size() && spans[k].start.wall < t.start) ++k;
    for (; k < spans.size() && spans[k].start.wall <= t.end; ++k) {
      const Span& s = spans[k];
      if (s.kind == Kind::kDeploy && s.start.wall != t.start) break;
      const bool resolve = !is_factory(s.kind);
      os << next_id++ << '\t' << kind_name(s.kind) << '\t'
         << s.start.wall - origin << '\t' << s.end.wall - origin << '\t'
         << (resolve ? engine_id : trial_id) << '\t' << n << '\t' << t.thread
         << '\n';
    }
  }
}

}  // namespace perfbench
