#include "service/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "support/byte_codec.hpp"
#include "support/hash.hpp"
#include "tuner/eval_cache.hpp"

namespace ith::svc {

namespace {

constexpr char kMagic[8] = {'I', 'T', 'H', 'S', 'V', 'P', '1', '\0'};
/// Malformed payloads fail as "service frame truncated".
constexpr const char* kPayloadLabel = "service frame";

/// Frames larger than this are a protocol error, not an allocation: a
/// corrupt size field must fail cleanly. Generous — the largest legitimate
/// payload is a whole-suite result vector, a few KB.
constexpr std::uint64_t kMaxPayload = 64ull << 20;

struct FrameHeader {
  char magic[8];
  std::uint32_t type;
  std::uint32_t reserved;
  std::uint64_t size;
  std::uint64_t checksum;
};
static_assert(sizeof(FrameHeader) == 32, "frame header is wire format");

/// recv() until `n` bytes or failure. Returns n on success, 0 on clean EOF
/// at a frame boundary start, -1 on error/timeout/mid-read EOF (errno set;
/// mid-read EOF reports as error with errno 0). `*consumed` always holds
/// the bytes actually read — the caller needs it to tell a retryable
/// timeout (nothing consumed, stream still frame-aligned) from a
/// desynchronizing one.
ssize_t read_exact(int fd, void* buf, std::size_t n, std::size_t* consumed) {
  std::size_t got = 0;
  *consumed = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, static_cast<char*>(buf) + got, n - got, 0);
    if (r == 0) {
      if (got == 0) return 0;
      errno = 0;
      return -1;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<std::size_t>(r);
    *consumed = got;
  }
  return static_cast<ssize_t>(got);
}

bool write_all(int fd, const void* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r =
        ::send(fd, static_cast<const char*>(buf) + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloOk: return "hello_ok";
    case MsgType::kHelloReject: return "hello_reject";
    case MsgType::kEvalAcquire: return "eval_acquire";
    case MsgType::kEvalResult: return "eval_result";
    case MsgType::kEvalLease: return "eval_lease";
    case MsgType::kEvalPublish: return "eval_publish";
    case MsgType::kPublishAck: return "publish_ack";
    case MsgType::kQuarantineQuery: return "quarantine_query";
    case MsgType::kQuarantineRelease: return "quarantine_release";
    case MsgType::kQuarantineState: return "quarantine_state";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kError: return "error";
  }
  return "?";
}

ReadStatus read_frame(int fd, Frame* out, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = what;
    return ReadStatus::kError;
  };

  FrameHeader header;
  std::size_t consumed = 0;
  const ssize_t r = read_exact(fd, &header, sizeof header, &consumed);
  if (r == 0) return ReadStatus::kClosed;
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // kTimeout only when nothing was consumed: the stream is still
      // frame-aligned and the read may be retried. A deadline firing
      // mid-header leaves the stream desynchronized — retrying would
      // misparse the remainder as a fresh header — so it must be an error.
      if (consumed == 0) return ReadStatus::kTimeout;
      return fail("torn frame header (timeout mid-frame)");
    }
    return fail(errno == 0 ? "torn frame header (mid-read EOF)" : "frame header read error");
  }
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
    return fail("bad frame magic");
  }
  if (header.size > kMaxPayload) return fail("frame payload size exceeds limit");

  std::string payload(header.size, '\0');
  if (header.size > 0) {
    const ssize_t p = read_exact(fd, payload.data(), payload.size(), &consumed);
    if (p <= 0) {
      // The header is already consumed, so even a zero-byte payload timeout
      // leaves the stream mid-frame: never kTimeout here.
      if (p < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return fail("torn frame payload (timeout mid-frame)");
      }
      return fail("torn frame payload");
    }
  }
  if (fnv1a(payload) != header.checksum) return fail("frame checksum mismatch");

  out->type = static_cast<MsgType>(header.type);
  out->payload = std::move(payload);
  return ReadStatus::kOk;
}

bool write_frame(int fd, MsgType type, const std::string& payload) {
  FrameHeader header;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.type = static_cast<std::uint32_t>(type);
  header.reserved = 0;
  header.size = payload.size();
  header.checksum = fnv1a(payload);
  if (!write_all(fd, &header, sizeof header)) return false;
  return payload.empty() || write_all(fd, payload.data(), payload.size());
}

// --- message payloads ----------------------------------------------------

std::string encode_hello(const HelloMsg& m) {
  ByteWriter w;
  w.u64(m.fingerprint);
  w.u64(m.client_id);
  w.str(m.name);
  return w.bytes();
}

HelloMsg decode_hello(const std::string& payload) {
  ByteReader r(payload, kPayloadLabel);
  HelloMsg m;
  m.fingerprint = r.u64();
  m.client_id = r.u64();
  m.name = r.str();
  return m;
}

std::string encode_results_msg(const ResultsMsg& m) {
  ByteWriter w;
  w.u64(m.signature);
  w.u64(m.lease_id);
  return w.bytes() + tuner::encode_results(m.results);
}

ResultsMsg decode_results_msg(const std::string& payload) {
  ByteReader r(payload, kPayloadLabel);
  ResultsMsg m;
  m.signature = r.u64();
  m.lease_id = r.u64();
  m.results = tuner::decode_results(r.rest());
  return m;
}

std::string encode_u64(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.bytes();
}

std::uint64_t decode_u64(const std::string& payload) {
  ByteReader r(payload, kPayloadLabel);
  return r.u64();
}

std::string encode_u64_pair(std::uint64_t a, std::uint64_t b) {
  ByteWriter w;
  w.u64(a);
  w.u64(b);
  return w.bytes();
}

std::pair<std::uint64_t, std::uint64_t> decode_u64_pair(const std::string& payload) {
  ByteReader r(payload, kPayloadLabel);
  const std::uint64_t a = r.u64();
  const std::uint64_t b = r.u64();
  return {a, b};
}

std::string encode_counters(const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  ByteWriter w;
  w.u64(counters.size());
  for (const auto& [name, value] : counters) {
    w.str(name);
    w.u64(value);
  }
  return w.bytes();
}

std::vector<std::pair<std::string, std::uint64_t>> decode_counters(const std::string& payload) {
  ByteReader r(payload, kPayloadLabel);
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (std::uint64_t i = 0, n = r.count(r.u64()); i < n; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    counters.emplace_back(std::move(name), value);
  }
  return counters;
}

}  // namespace ith::svc
