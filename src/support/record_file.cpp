#include "support/record_file.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace ith {

namespace {

constexpr std::size_t kMagicSize = 8;
constexpr std::size_t kHeaderSize = kMagicSize + 2 * sizeof(std::uint64_t);

}  // namespace

void write_record_file(const std::string& path, const RecordFormat& format,
                       const std::string& payload) {
  const std::string label = format.label;
  const std::uint64_t size = payload.size();
  const std::uint64_t checksum = fnv1a(payload);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    ITH_CHECK(os.good(), "cannot open " + label + " file for writing: " + tmp);
    os.write(format.magic, static_cast<std::streamsize>(kMagicSize));
    os.write(reinterpret_cast<const char*>(&size), sizeof size);
    os.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    ITH_CHECK(os.good(), label + " write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename " + label + " into place: " + path);
  }
}

std::string read_record_file(const std::string& path, const RecordFormat& format) {
  const std::string label = format.label;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw Error("cannot open " + label + ": " + path);
  // Reading the whole file bounds every allocation by the real file length,
  // so a corrupted size field cannot demand a giant buffer.
  std::string file((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (file.size() < kMagicSize || std::memcmp(file.data(), format.magic, kMagicSize) != 0) {
    throw Error("not " + std::string(format.kind) + " (bad magic): " + path);
  }
  if (file.size() < kHeaderSize) throw Error(label + " truncated: " + path);
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&size, file.data() + kMagicSize, sizeof size);
  std::memcpy(&checksum, file.data() + kMagicSize + sizeof size, sizeof checksum);
  const std::uint64_t remaining = file.size() - kHeaderSize;
  if (size > remaining) throw Error(label + " truncated: " + path);
  if (remaining > size) throw Error(label + " has trailing bytes (corrupted file): " + path);
  file.erase(0, kHeaderSize);
  if (fnv1a(file) != checksum) throw Error(label + " checksum mismatch (corrupted file): " + path);
  return file;
}

bool remove_stale_tmp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (!std::ifstream(tmp).good()) return false;
  return std::remove(tmp.c_str()) == 0;
}

}  // namespace ith
