#include "fabric/worker.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include <poll.h>

#include "fabric/spec.hpp"
#include "fabric/transport.hpp"
#include "fabric/wire.hpp"
#include "sim/campaign_core.hpp"
#include "util/error.hpp"

namespace fcr::fabric {
namespace {

/// Unwinds run_shard when the die_after_entries test hook fires —
/// deliberately NOT an fcr::Error: nothing may catch and report it, the
/// worker must vanish mid-shard like a real crash.
struct SimulatedCrashError {};

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Everything derived from one grant's spec text, cached across leases
/// (the coordinator sends the same spec every time; re-deriving factories
/// per lease would only add noise). The executor references the factory
/// triple, so the whole bundle lives behind one stable allocation.
struct SpecContext {
  std::string text;
  SweepSpec spec;
  CampaignConfig config;
  std::uint64_t config_hash = 0;
  Factories factories;
  std::unique_ptr<TrialExecutor> executor;
};

std::unique_ptr<SpecContext> build_context(const std::string& text) {
  auto ctx = std::make_unique<SpecContext>();
  ctx->text = text;
  ctx->spec = parse_spec(text);
  ctx->config = campaign_config(ctx->spec);
  ctx->config_hash = campaign_config_hash(ctx->config);
  ctx->factories = make_factories(ctx->spec);
  ctx->executor = std::make_unique<TrialExecutor>(
      ctx->factories.deploy, ctx->factories.channel, ctx->factories.algorithm);
  return ctx;
}

/// Waits up to `timeout_ms` for one frame. nullopt on timeout OR when the
/// connection died (check ch.open() to tell them apart). Throws
/// fcr::Error(kCorrupt) on a poisoned stream, like FrameChannel::next.
std::optional<Frame> await_frame(FrameChannel& ch, std::uint64_t timeout_ms) {
  const std::uint64_t deadline = steady_ms() + timeout_ms;
  for (;;) {
    if (auto f = ch.next()) return f;
    if (!ch.open()) return std::nullopt;
    const std::uint64_t now = steady_ms();
    if (now >= deadline) return std::nullopt;
    pollfd pfd{ch.fd(), POLLIN, 0};
    if (ch.want_write()) pfd.events |= POLLOUT;
    ::poll(&pfd, 1, static_cast<int>(std::min<std::uint64_t>(
                        deadline - now, 100)));
    if (ch.want_write() && !ch.flush()) return std::nullopt;
    if (!ch.pump()) {
      // Drain frames that arrived with the EOF before reporting loss.
      if (auto f = ch.next()) return f;
      return std::nullopt;
    }
  }
}

/// Idles on the channel until `deadline`: true as soon as a Shutdown
/// arrives, false on timeout or EOF. Any other frame is stale and
/// discarded. Throws like await_frame on a poisoned stream.
bool await_shutdown(FrameChannel& ch, std::uint64_t deadline) {
  for (std::uint64_t now = steady_ms(); now < deadline; now = steady_ms()) {
    const std::optional<Frame> f = await_frame(ch, deadline - now);
    if (!f) return false;
    if (f->type == MsgType::kShutdown) return true;
  }
  return false;
}

}  // namespace

bool run_worker(const WorkerConfig& config, WorkerStats* stats) {
  FCR_ENSURE_ARG(!config.socket_path.empty(), "worker needs a socket path");
  WorkerStats local_stats;
  WorkerStats& st = stats != nullptr ? *stats : local_stats;

  std::optional<FrameChannel> ch;
  const auto connect = [&]() -> bool {
    for (std::size_t tries = 0; tries < config.connect_attempts; ++tries) {
      Fd fd = connect_unix(config.socket_path);
      if (fd.valid()) {
        ch.emplace(std::move(fd));
        ch->send(Frame{MsgType::kHello, encode_hello({config.name})});
        return true;
      }
      sleep_ms(config.connect_retry_ms);
    }
    return false;
  };
  const auto reconnect = [&]() -> bool {
    ++st.reconnects;
    return connect();
  };

  if (!connect()) return false;

  std::unique_ptr<SpecContext> ctx;
  std::size_t entries_done = 0;

  try {
    for (;;) {
      if (config.max_leases != 0 && st.leases >= config.max_leases) {
        return true;
      }
      // An idle worker that cannot reach the coordinator exits CLEANLY:
      // it holds no lease and no un-acked result, so either the campaign
      // finished (the socket file is gone) or a restarted coordinator
      // will recompute — nothing is lost either way.
      if (!ch->open() && !reconnect()) return true;
      // Drain anything queued before requesting: a Shutdown can arrive
      // between leases, and the coordinator may close right after
      // sending it.
      try {
        ch->pump();
        while (auto queued = ch->next()) {
          if (queued->type == MsgType::kShutdown) return true;
        }
        // FCRLINT_ALLOW(error-discipline): recovered, not swallowed — close + re-dial and the lease protocol heals it
      } catch (const Error&) {
        ch->close();
        continue;
      }
      if (!ch->send(Frame{MsgType::kLeaseRequest, {}})) {
        continue;  // loop re-dials (or exits cleanly) at the top
      }

      std::optional<Frame> f;
      try {
        f = await_frame(*ch, config.io_timeout_ms);
        // FCRLINT_ALLOW(error-discipline): poisoned stream — re-dial; the coordinator drops its end too and the lease machinery heals the loss
      } catch (const Error&) {
        ch->close();
        if (!reconnect()) return false;
        continue;
      }
      if (!f) continue;  // timeout or EOF: re-request (idempotent)

      if (f->type == MsgType::kShutdown) return true;
      if (f->type == MsgType::kNoWork) {
        // Idle on the socket, not a timer, so the campaign's Shutdown ends
        // the wait; a timeout or EOF re-requests or re-dials at the top.
        const std::uint64_t start = steady_ms();
        const std::uint64_t backoff =
            std::min<std::uint64_t>(decode_no_work(f->payload).backoff_ms,
                                    10'000);
        bool shutdown = false;
        try {
          shutdown = await_shutdown(*ch, start + backoff);
          // FCRLINT_ALLOW(error-discipline): poisoned stream while idle — close; the loop top re-dials
        } catch (const Error&) {
          ch->close();
        }
        ++st.no_work_waits;
        st.no_work_wait_ms += steady_ms() - start;
        if (shutdown) return true;
        continue;
      }
      if (f->type != MsgType::kLeaseGrant) continue;  // stale ack etc.

      const LeaseGrantMsg grant = decode_lease_grant(f->payload);
      if (!ctx || ctx->text != grant.spec) ctx = build_context(grant.spec);
      if (ctx->config_hash != grant.config_hash) {
        throw Error(ErrorCategory::kConfig,
                    "fabric: spec hash mismatch against coordinator "
                    "(version skew?)");
      }

      std::vector<std::size_t> trials;
      trials.reserve(grant.trials.size());
      for (const std::uint64_t t : grant.trials) {
        trials.push_back(static_cast<std::size_t>(t));
      }

      std::uint64_t last_hb = steady_ms();
      std::uint64_t completed = 0;
      const auto on_entry = [&](const CheckpointEntry&) {
        ++completed;
        ++entries_done;
        if (config.die_after_entries != 0 &&
            entries_done >= config.die_after_entries) {
          throw SimulatedCrashError{};
        }
        const std::uint64_t now = steady_ms();
        if (now - last_hb >= config.heartbeat_ms) {
          last_hb = now;
          ch->send(Frame{MsgType::kHeartbeat,
                         encode_heartbeat({grant.lease, completed})},
                   "fabric/heartbeat");
        }
      };

      const ShardOutcome out = run_shard(*ctx->executor, ctx->config, trials,
                                         config.name, on_entry);
      st.trials += out.entries.size();

      CheckpointData shard_state;
      shard_state.config_hash = ctx->config_hash;
      shard_state.total_trials = ctx->config.trial.trials;
      shard_state.entries = out.entries;
      const Frame result{
          MsgType::kShardResult,
          encode_shard_result({grant.lease, serialize_checkpoint(shard_state),
                               out.failures})};

      // Re-send until acked: a dropped result frame just gets re-sent; a
      // revoked lease gets a duplicate re-ack; a dead connection gets a
      // re-dial and one more send (the coordinator dedups all of it).
      bool acked = false;
      for (std::size_t send_no = 0; !acked && send_no <= config.max_resends;
           ++send_no) {
        if (send_no > 0) ++st.resends;
        if (!ch->open() && !reconnect()) return false;
        if (!ch->send(result)) continue;
        const std::uint64_t wait_until = steady_ms() + config.io_timeout_ms;
        while (!acked) {
          const std::uint64_t now = steady_ms();
          if (now >= wait_until) break;
          std::optional<Frame> reply;
          try {
            reply = await_frame(*ch, wait_until - now);
            // FCRLINT_ALLOW(error-discipline): poisoned stream while awaiting the ack — close, re-dial, re-send (idempotent)
          } catch (const Error&) {
            ch->close();
            break;
          }
          if (!reply) break;
          if (reply->type == MsgType::kResultAck &&
              decode_result_ack(reply->payload).lease == grant.lease) {
            acked = true;
          } else if (reply->type == MsgType::kShutdown) {
            return true;
          }
          // Anything else (late duplicate grant, NoWork) is stale: keep
          // waiting for the ack.
        }
      }
      if (!acked) continue;  // lease expired server-side; just move on
      ++st.leases;
    }
    // FCRLINT_ALLOW(error-discipline): injected test crash — vanish mid-shard with no result and no goodbye; the lease must expire
  } catch (const SimulatedCrashError&) {
    ch->close();
    return false;
  }
}

}  // namespace fcr::fabric
