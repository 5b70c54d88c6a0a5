// Evaluation-service wire protocol: length-prefixed frames over a unix
// domain socket.
//
// Every frame is
//
//   magic    8 bytes  "ITHSVP1\0"   (version bump = new magic)
//   type     u32      MsgType
//   reserved u32      0 (alignment / future flags)
//   size     u64      payload byte count
//   checksum u64      FNV-1a over the payload
//   payload  size bytes
//
// The checksum is support/hash.hpp's fnv1a and the payload encoding is the
// support/byte_codec.hpp codec, shared with the ITHEVC1 snapshot and the
// ITHGACP1 checkpoint; a torn or bit-flipped frame fails loudly (bad magic
// or checksum mismatch) instead of desynchronizing the stream. The socket
// header read stays here because of its timeout and desync rules. Result
// vectors ride as tuner::encode_results bytes, so a served result is
// byte-identical to a snapshot entry.
//
// Conversations are strictly synchronous request/response per connection
// (one outstanding request), which lets the daemon park a connection
// server-side while a leased signature is being computed elsewhere — the
// cross-process single-flight wait — without any frame interleaving rules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tuner/evaluator.hpp"

namespace ith::svc {

/// Frame types. The values are wire format — append only.
enum class MsgType : std::uint32_t {
  kHello = 1,              ///< client: fingerprint + identity
  kHelloOk = 2,            ///< daemon: accepted (cache population attached)
  kHelloReject = 3,        ///< daemon: fingerprint mismatch — do not retry
  kEvalAcquire = 4,        ///< client: signature lookup / lease request
  kEvalResult = 5,         ///< daemon: cached (or just-published) results
  kEvalLease = 6,          ///< daemon: caller owns the miss; compute + publish
  kEvalPublish = 7,        ///< client: computed results (lease 0 = unsolicited)
  kPublishAck = 8,         ///< daemon: publish accepted / deduplicated
  kQuarantineQuery = 9,    ///< client: is this signature quarantined?
  kQuarantineRelease = 10, ///< client: lift the quarantine + drop the entry
  kQuarantineState = 11,   ///< daemon: reply to query/release
  kStats = 12,             ///< client: request the svc.* counter snapshot
  kStatsReply = 13,        ///< daemon: counter snapshot
  kError = 14,             ///< daemon: request-level failure (connection stays)
};

const char* msg_type_name(MsgType t);

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Outcome of read_frame: distinguishes a clean peer close from a torn or
/// corrupt stream so callers can count the two differently.
enum class ReadStatus : std::uint8_t {
  kOk = 0,
  kClosed = 1,  ///< EOF before any header byte (clean disconnect)
  kError = 2,   ///< torn header/payload, bad magic, checksum mismatch
  /// SO_RCVTIMEO expired before *any* frame byte arrived: the stream is
  /// still frame-aligned and the read may be retried on the same fd. A
  /// deadline that fires after bytes were consumed reports kError instead —
  /// the stream is desynchronized and the connection must be closed.
  kTimeout = 3,
};

/// Reads one frame. Blocks (subject to any SO_RCVTIMEO on the fd).
ReadStatus read_frame(int fd, Frame* out, std::string* error = nullptr);

/// Writes one frame. Returns false when the peer is gone or the stream
/// fails (SIGPIPE is suppressed via MSG_NOSIGNAL).
bool write_frame(int fd, MsgType type, const std::string& payload);

// --- message payloads ----------------------------------------------------

struct HelloMsg {
  std::uint64_t fingerprint = 0;
  std::uint64_t client_id = 0;
  std::string name;
};

std::string encode_hello(const HelloMsg& m);
HelloMsg decode_hello(const std::string& payload);

/// kEvalResult / kEvalPublish share this shape (publish adds the lease).
struct ResultsMsg {
  std::uint64_t signature = 0;
  std::uint64_t lease_id = 0;  ///< kEvalPublish only; 0 = unsolicited
  std::vector<tuner::BenchmarkResult> results;
};

std::string encode_results_msg(const ResultsMsg& m);
ResultsMsg decode_results_msg(const std::string& payload);

std::string encode_u64(std::uint64_t v);
std::uint64_t decode_u64(const std::string& payload);

std::string encode_u64_pair(std::uint64_t a, std::uint64_t b);
std::pair<std::uint64_t, std::uint64_t> decode_u64_pair(const std::string& payload);

std::string encode_counters(const std::vector<std::pair<std::string, std::uint64_t>>& counters);
std::vector<std::pair<std::string, std::uint64_t>> decode_counters(const std::string& payload);

}  // namespace ith::svc
