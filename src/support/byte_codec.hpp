// The byte codec of every persisted and wire format: ITHGACP1 checkpoints,
// ITHEVC1 evaluation-cache snapshots and ITHSVP1 service frames. Fixed-width
// host-endian u64/i64/f64 fields and u64-length-prefixed strings.
//
// A reader carries its format's label, so malformed input fails as
// ith::Error("<label> truncated") — "checkpoint truncated", "evaluation cache
// truncated", "service frame truncated" — and never reads out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace ith {

/// Append-only encoder.
class ByteWriter {
 public:
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s);
  }
  const std::string& bytes() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n) { buf_.append(static_cast<const char*>(p), n); }
  std::string buf_;
};

/// Decoder over borrowed bytes: the buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* label) : buf_(bytes), label_(label) {}

  std::uint64_t u64() { return pod<std::uint64_t>(); }
  std::int64_t i64() { return pod<std::int64_t>(); }
  double f64() { return pod<double>(); }
  std::string str() { return std::string(take(u64())); }
  /// The unread remainder, verbatim.
  std::string rest() { return std::string(take(buf_.size() - pos_)); }
  /// Validates an element count against the bytes left (every element holds
  /// at least one u64), so a corrupted length fails as truncated instead of
  /// driving a giant allocation.
  std::uint64_t count(std::uint64_t n) const {
    if (n > (buf_.size() - pos_) / sizeof(std::uint64_t)) truncated();
    return n;
  }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  T pod() {
    T v{};
    std::memcpy(&v, take(sizeof v).data(), sizeof v);
    return v;
  }
  std::string_view take(std::uint64_t n) {
    if (n > buf_.size() - pos_) truncated();
    const std::string_view s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  [[noreturn]] void truncated() const { throw Error(std::string(label_) + " truncated"); }

  std::string_view buf_;
  const char* label_;
  std::size_t pos_ = 0;
};

}  // namespace ith
