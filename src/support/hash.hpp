// FNV-1a 64, the one content hash of the system.
//
// It keys decision signatures, evaluator cache and GA fingerprints, fault
// opportunity keys and serving arrival seeds, and it is the checksum of every
// record file (support/record_file.hpp) and service frame. Its values are
// persisted and sent over the wire, so the function is frozen. Header-only and
// inline because the decision probe hashes on its hot path.
#pragma once

#include <cstdint>
#include <string_view>

namespace ith {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// Folds one byte into a running hash.
inline constexpr std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char b) {
  return (h ^ b) * 0x100000001b3ULL;
}

/// Folds the eight bytes of `v`, least significant first.
inline constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i, v >>= 8) h = fnv1a_byte(h, static_cast<unsigned char>(v & 0xff));
  return h;
}

/// Hash of `bytes`; pass `h` to continue a running hash instead of starting one.
inline constexpr std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnv1aBasis) {
  for (const char c : bytes) h = fnv1a_byte(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace ith
