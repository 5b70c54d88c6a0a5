// The shared hash, byte codec and record-file envelope (support/hash.hpp,
// support/byte_codec.hpp, support/record_file.hpp). Format-specific golden
// bytes live beside each format's own tests.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/record_file.hpp"
#include "testing.hpp"

namespace ith {
namespace {

// Standard FNV-1a 64 test vectors.
static_assert(fnv1a("") == 0xcbf29ce484222325ULL);
static_assert(fnv1a("a") == 0xaf63dc4c8601ec8cULL);
static_assert(fnv1a("foobar") == 0x85944171f73967e8ULL);

TEST(Fnv1a, MatchesStandardVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));  // running hash continues
}

TEST(Fnv1a, U64FoldsLittleEndianBytes) {
  const std::uint64_t v = 0x0102030405060708ULL;
  const char bytes[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(fnv1a_u64(kFnv1aBasis, v), fnv1a(std::string_view(bytes, sizeof bytes)));
}

void expect_error(const std::function<void()>& fn, const char* needle) {
  try {
    fn();
    FAIL() << "expected Error mentioning \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(ByteCodec, RoundtripsEveryFieldKind) {
  ByteWriter w;
  w.u64(~0ULL);
  w.i64(-5);
  w.f64(0.125);
  w.str("abc");
  w.u64(7);
  ByteReader r(w.bytes(), "test");
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(r.i64(), -5);
  EXPECT_EQ(r.f64(), 0.125);
  EXPECT_EQ(r.str(), "abc");
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.rest(), std::string("\x07\0\0\0\0\0\0\0", 8));
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodec, MalformedInputFailsAsLabelledTruncation) {
  ByteWriter w;
  w.u64(1ULL << 40);  // a string length far past the end
  const std::string bytes = w.bytes();
  expect_error([&] { ByteReader(bytes, "widget").str(); }, "widget truncated");
  expect_error([&] { ByteReader(bytes.substr(0, 3), "widget").u64(); }, "widget truncated");
  ByteReader counted(bytes, "widget");
  expect_error([&] { counted.count(counted.u64()); }, "widget truncated");
  EXPECT_EQ(ByteReader(bytes, "widget").count(1), 1u);  // one u64 left: one element fits
}

constexpr RecordFormat kTestFormat = {"ITHTEST1", "test record", "a test record"};

class RecordFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::per_test_path("record_file_test");
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  void dump(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  void expect_read_error(const char* needle) const {
    expect_error([&] { read_record_file(path_, kTestFormat); }, needle);
  }
  std::string path_;
};

TEST_F(RecordFile, WritesMagicSizeChecksumPayload) {
  write_record_file(path_, kTestFormat, "payload");
  const std::string bytes = slurp();
  ASSERT_EQ(bytes.size(), 24u + 7u);
  EXPECT_EQ(bytes.substr(0, 8), "ITHTEST1");
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&size, bytes.data() + 8, sizeof size);
  std::memcpy(&checksum, bytes.data() + 16, sizeof checksum);
  EXPECT_EQ(size, 7u);
  EXPECT_EQ(checksum, fnv1a("payload"));
  EXPECT_EQ(bytes.substr(24), "payload");
  EXPECT_EQ(read_record_file(path_, kTestFormat), "payload");
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());  // rename consumed the tmp
}

TEST_F(RecordFile, EachFaultHasItsOwnError) {
  expect_read_error("cannot open test record: ");
  dump("ITHTEST2 and then some more bytes than a header");
  expect_read_error("not a test record (bad magic)");
  write_record_file(path_, kTestFormat, "payload");
  const std::string good = slurp();
  dump(good.substr(0, 12));
  expect_read_error("test record truncated");
  dump(good.substr(0, good.size() - 1));
  expect_read_error("test record truncated");
  dump(good + "x");
  expect_read_error("test record has trailing bytes (corrupted file)");
  std::string flipped = good;
  flipped.back() ^= 0x01;
  dump(flipped);
  expect_read_error("test record checksum mismatch (corrupted file)");
}

TEST_F(RecordFile, StaleTmpSweep) {
  EXPECT_FALSE(remove_stale_tmp(path_));
  { std::ofstream(path_ + ".tmp") << "half-written"; }
  EXPECT_TRUE(remove_stale_tmp(path_));
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());
}

}  // namespace
}  // namespace ith
