// Fabric wire protocol: CRC-framed messages over a byte stream.
//
// Layout of one frame, little-endian throughout:
//   magic "FCRF" | u8 type | u32 payload_len | payload | u32 crc32
// with the CRC computed over everything before it (magic included), using
// the same IEEE CRC-32 as the checkpoint file (util/crc32.hpp). A frame
// that fails magic/length/CRC validation poisons the stream — the reader
// reports kCorrupt and the connection is reset; the lease machinery heals
// the loss (idempotent re-grant / re-send, docs/ROBUSTNESS.md §6).
//
// The protocol is deliberately idempotent and retry-driven:
//   worker:       Hello -> { LeaseRequest -> (LeaseGrant | NoWork |
//                 Shutdown) -> [Heartbeat...] -> ShardResult -> ResultAck }*
//   coordinator:  grants leases, renews them on heartbeats, merges shard
//                 results (dedup by lease id), re-acks duplicates.
// Any lost frame is survivable: a lost grant is re-requested, a lost
// result is recomputed after lease expiry, a duplicated result merges as
// a no-op. That is what lets the transport fault injector (drop /
// duplicate / reorder / delay / partition) run against live campaigns
// with bit-identical outcomes.
//
// A ShardResult's payload embeds a PR 5 checkpoint (serialize_checkpoint
// bytes) VERBATIM as the shard state: one serializer, one validator
// (parse_checkpoint) for both the snapshot file and the wire.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/campaign.hpp"

namespace fcr::fabric {

enum class MsgType : std::uint8_t {
  kHello = 1,         ///< worker -> coord: here I am (payload: worker name)
  kLeaseRequest = 2,  ///< worker -> coord: give me a shard
  kLeaseGrant = 3,    ///< coord -> worker: lease id + trial list + spec
  kNoWork = 4,        ///< coord -> worker: nothing now; the worker waits on
                      ///< its socket for the backoff, and a Shutdown ends
                      ///< that wait at once; then it re-requests
  kHeartbeat = 5,     ///< worker -> coord: lease alive, progress count
  kShardResult = 6,   ///< worker -> coord: checkpoint bytes + failures
  kResultAck = 7,     ///< coord -> worker: result merged, lease closed
  kShutdown = 8,      ///< coord -> worker: campaign over, exit cleanly
};

struct Frame {
  MsgType type = MsgType::kHello;
  std::string payload;
};

/// Typed payloads. Encode/decode are exact inverses; decode validates
/// bounds and throws fcr::Error(kCorrupt) on malformed bytes.

struct HelloMsg {
  std::string worker;  ///< e.g. "fcrw@host:1234" or a test-chosen name
};

struct LeaseGrantMsg {
  std::uint64_t lease = 0;
  std::uint64_t config_hash = 0;       ///< campaign_config_hash of the spec
  std::vector<std::uint64_t> trials;   ///< explicit trial list (retries may
                                       ///< make pending non-contiguous)
  std::string spec;                    ///< serialize_spec() text
};

struct NoWorkMsg {
  std::uint64_t backoff_ms = 0;  ///< coordinator's pacing hint
};

struct HeartbeatMsg {
  std::uint64_t lease = 0;
  std::uint64_t completed = 0;  ///< entries finished so far in this lease
};

struct ShardResultMsg {
  std::uint64_t lease = 0;
  std::string checkpoint;  ///< serialize_checkpoint() bytes, verbatim
  std::vector<TrialFailure> failures;
};

struct ResultAckMsg {
  std::uint64_t lease = 0;
};

std::string encode_hello(const HelloMsg& m);
std::string encode_lease_grant(const LeaseGrantMsg& m);
std::string encode_no_work(const NoWorkMsg& m);
std::string encode_heartbeat(const HeartbeatMsg& m);
std::string encode_shard_result(const ShardResultMsg& m);
std::string encode_result_ack(const ResultAckMsg& m);

HelloMsg decode_hello(const std::string& payload);
LeaseGrantMsg decode_lease_grant(const std::string& payload);
NoWorkMsg decode_no_work(const std::string& payload);
HeartbeatMsg decode_heartbeat(const std::string& payload);
ShardResultMsg decode_shard_result(const std::string& payload);
ResultAckMsg decode_result_ack(const std::string& payload);

/// Frames `frame` into wire bytes (magic + header + payload + CRC).
std::string encode_frame(const Frame& frame);

/// Incremental frame extraction from a receive buffer. Returns the first
/// complete frame and erases its bytes from `buf`; nullopt when `buf`
/// holds only a prefix. Throws fcr::Error(kCorrupt) on bad magic, an
/// oversized length, or a CRC mismatch — the caller must reset the
/// connection (the stream cannot be resynchronized).
std::optional<Frame> extract_frame(std::string& buf);

/// Upper bound on a frame's payload (grants carry a spec + trial list;
/// results carry a shard checkpoint — both far below this). A length
/// field above the cap is treated as corruption, so a damaged length
/// cannot make the reader wait forever for bytes that never come.
inline constexpr std::size_t kMaxPayload = 16u << 20;

}  // namespace fcr::fabric
