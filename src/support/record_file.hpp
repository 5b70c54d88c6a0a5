// Checksummed record files: the one on-disk envelope of ITHGACP1 GA
// checkpoints (resilience/checkpoint.hpp) and ITHEVC1 evaluation-cache
// snapshots (tuner/eval_cache.hpp).
//
//   magic    8 bytes  format identity (a version bump is a new magic)
//   size     u64      payload byte count
//   checksum u64      fnv1a(payload) (support/hash.hpp)
//   payload  size bytes, support/byte_codec.hpp encoding
//
// Host-endian: crash-recovery state for this machine, not a portable
// archive. write_record_file writes the sibling `path + ".tmp"` and renames
// it into place, so readers see the old file or the new one, never a torn
// one. The tmp name is fixed, so concurrent writers of one path must
// serialize themselves. read_record_file checks the declared size against the
// file length before it trusts it and fails with a distinct ith::Error per
// fault: unopenable, bad magic, truncated, trailing bytes, checksum mismatch.
#pragma once

#include <string>

namespace ith {

/// A record format's identity and the words its errors use.
struct RecordFormat {
  const char* magic;  ///< first 8 bytes of the file (may include a NUL)
  const char* label;  ///< "<label> truncated", "cannot open <label>: <path>", ...
  const char* kind;   ///< "not <kind> (bad magic): <path>"
};

/// Publishes `payload` at `path` atomically. Throws ith::Error on I/O failure.
void write_record_file(const std::string& path, const RecordFormat& format,
                       const std::string& payload);

/// Reads and validates the file at `path`; returns its payload.
std::string read_record_file(const std::string& path, const RecordFormat& format);

/// Removes a stale `path + ".tmp"` left by a write that died between write
/// and rename; rename already guarantees the published file is whole, so the
/// tmp is garbage. Returns true when one existed.
bool remove_stale_tmp(const std::string& path);

}  // namespace ith
