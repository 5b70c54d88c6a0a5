// Persistent evaluation cache (ITHEVC1): full-fidelity roundtrip through
// the binary format, distinct diagnostics for every corruption mode a
// crashed or copied file can exhibit, and the fingerprint gate that keeps a
// cache produced under one evaluator configuration from silently feeding
// results to a different one.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/inline_params.hpp"
#include "resilience/budget.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

tuner::EvalCacheSnapshot sample_snapshot() {
  tuner::EvalCacheSnapshot snap;
  snap.fingerprint = 0xfeedfacecafebeefULL;

  tuner::EvalCacheSnapshot::Entry ok;
  ok.signature = 0x1111222233334444ULL;
  tuner::BenchmarkResult r1;
  r1.name = "db";
  r1.running_cycles = 123456789;
  r1.total_cycles = 234567890;
  r1.compile_cycles = 111111101;
  r1.attempts = 2;
  ok.results.push_back(r1);
  tuner::BenchmarkResult r2;
  r2.name = "compress";
  r2.running_cycles = 42;
  r2.total_cycles = 43;
  r2.compile_cycles = 1;
  ok.results.push_back(r2);
  snap.entries.push_back(ok);

  tuner::EvalCacheSnapshot::Entry failed;
  failed.signature = 0x5555666677778888ULL;
  tuner::BenchmarkResult rf;
  rf.name = "db";
  rf.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected, "quarantined");
  rf.attempts = 0;
  failed.results.push_back(rf);
  snap.entries.push_back(failed);

  snap.quarantined = {0x5555666677778888ULL, 0x9999aaaabbbbccccULL};
  return snap;
}

class EvalCacheFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::per_test_path("eval_cache_test");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  void dump(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  void expect_load_error(const char* needle) const {
    try {
      tuner::load_eval_cache(path_);
      FAIL() << "expected Error mentioning \"" << needle << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }
  std::string path_;
};

void expect_snapshot_eq(const tuner::EvalCacheSnapshot& got, const tuner::EvalCacheSnapshot& snap) {
  EXPECT_EQ(got.fingerprint, snap.fingerprint);
  EXPECT_EQ(got.quarantined, snap.quarantined);
  ASSERT_EQ(got.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].signature, snap.entries[i].signature);
    ASSERT_EQ(got.entries[i].results.size(), snap.entries[i].results.size());
    for (std::size_t j = 0; j < snap.entries[i].results.size(); ++j) {
      const tuner::BenchmarkResult& want = snap.entries[i].results[j];
      const tuner::BenchmarkResult& have = got.entries[i].results[j];
      EXPECT_EQ(have.name, want.name);
      EXPECT_EQ(have.running_cycles, want.running_cycles);
      EXPECT_EQ(have.total_cycles, want.total_cycles);
      EXPECT_EQ(have.compile_cycles, want.compile_cycles);
      EXPECT_EQ(have.outcome.kind, want.outcome.kind);
      EXPECT_EQ(have.outcome.budget, want.outcome.budget);
      EXPECT_EQ(have.outcome.trap, want.outcome.trap);
      EXPECT_EQ(have.outcome.detail, want.outcome.detail);
      EXPECT_EQ(have.attempts, want.attempts);
    }
  }
}

TEST_F(EvalCacheFile, Roundtrip) {
  const tuner::EvalCacheSnapshot snap = sample_snapshot();
  tuner::save_eval_cache(path_, snap);
  expect_snapshot_eq(tuner::load_eval_cache(path_), snap);
}

// Golden ITHEVC1 bytes, written by the snapshot code before it moved onto
// support/record_file: old snapshots must keep loading, and new saves must
// stay byte-identical.
tuner::EvalCacheSnapshot golden_snapshot() {
  tuner::EvalCacheSnapshot snap;
  snap.fingerprint = 0xfeedfacecafef00dULL;
  tuner::BenchmarkResult ok;
  ok.name = "db";
  ok.running_cycles = 1000;
  ok.total_cycles = 1200;
  ok.compile_cycles = 200;
  tuner::BenchmarkResult bad;
  bad.name = "jess";
  bad.outcome.kind = resilience::OutcomeKind::kBudgetExceeded;
  bad.outcome.budget = resilience::BudgetKind::kSimCycles;
  bad.outcome.detail = "sim";
  bad.attempts = 2;
  snap.entries = {{0x42, {ok, bad}}};
  snap.quarantined = {0x99};
  return snap;
}

const char* const kGoldenSnapshotHex =
    "4954484556433100c900000000000000dbc4e193f2aa9cb50df0fecacefaedfe"
    "0100000000000000420000000000000002000000000000000200000000000000"
    "6462e803000000000000b004000000000000c800000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000010000000000"
    "000004000000000000006a657373000000000000000000000000000000000000"
    "0000000000000100000000000000010000000000000000000000000000000300"
    "00000000000073696d0200000000000000010000000000000099000000000000"
    "00";

TEST_F(EvalCacheFile, SaveReproducesGoldenBytes) {
  tuner::save_eval_cache(path_, golden_snapshot());
  EXPECT_EQ(slurp(), test::from_hex(kGoldenSnapshotHex));
}

TEST_F(EvalCacheFile, GoldenLoadsFieldForField) {
  dump(test::from_hex(kGoldenSnapshotHex));
  expect_snapshot_eq(tuner::load_eval_cache(path_), golden_snapshot());
}

TEST_F(EvalCacheFile, MissingFileRejected) { expect_load_error("cannot open"); }

TEST_F(EvalCacheFile, BadMagicRejected) {
  dump("this is a perfectly ordinary text file, not an evaluation cache at all");
  expect_load_error("bad magic");
}

TEST_F(EvalCacheFile, HeaderTruncationRejected) {
  tuner::save_eval_cache(path_, sample_snapshot());
  dump(slurp().substr(0, 12));  // magic survives, sizes do not
  expect_load_error("truncated");
}

TEST_F(EvalCacheFile, PayloadTruncationRejected) {
  tuner::save_eval_cache(path_, sample_snapshot());
  const std::string bytes = slurp();
  ASSERT_GT(bytes.size(), 40u);
  dump(bytes.substr(0, bytes.size() - 16));
  expect_load_error("truncated");
}

TEST_F(EvalCacheFile, CorruptionRejectedByChecksum) {
  tuner::save_eval_cache(path_, sample_snapshot());
  std::string bytes = slurp();
  bytes[bytes.size() / 2] ^= 0x20;  // flip one payload bit
  dump(bytes);
  expect_load_error("checksum");
}

TEST_F(EvalCacheFile, TrailingGarbageRejected) {
  tuner::save_eval_cache(path_, sample_snapshot());
  dump(slurp() + "extra");
  expect_load_error("trailing");
}

// ---------------------------------------------------------------------------
// Fingerprint gating at restore().

tuner::SuiteEvaluator make_evaluator(int iterations) {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.iterations = iterations;
  return tuner::SuiteEvaluator(std::move(suite), config);
}

TEST_F(EvalCacheFile, RestoredEntriesSatisfyEvaluateWithoutARun) {
  tuner::SuiteEvaluator producer = make_evaluator(/*iterations=*/2);
  const heur::InlineParams params = heur::default_params();
  const tuner::SuiteEvaluator::Results want = producer.evaluate(params);
  ASSERT_EQ(producer.evaluations_performed(), 1u);
  tuner::save_eval_cache(path_, producer.snapshot());

  tuner::SuiteEvaluator consumer = make_evaluator(/*iterations=*/2);
  consumer.restore(tuner::load_eval_cache(path_));
  const tuner::SuiteEvaluator::Results got = consumer.evaluate(params);
  EXPECT_EQ(consumer.evaluations_performed(), 0u);  // pure cache hit
  ASSERT_EQ(got->size(), want->size());
  EXPECT_EQ((*got)[0].name, (*want)[0].name);
  EXPECT_EQ((*got)[0].running_cycles, (*want)[0].running_cycles);
  EXPECT_EQ((*got)[0].total_cycles, (*want)[0].total_cycles);
  EXPECT_EQ((*got)[0].compile_cycles, (*want)[0].compile_cycles);
}

TEST_F(EvalCacheFile, FingerprintMismatchRefusedByRestore) {
  tuner::SuiteEvaluator producer = make_evaluator(/*iterations=*/2);
  producer.evaluate(heur::default_params());
  tuner::save_eval_cache(path_, producer.snapshot());

  // A differently-configured evaluator (iteration count changes every cycle
  // figure) must refuse the snapshot outright rather than serve stale rows.
  tuner::SuiteEvaluator other = make_evaluator(/*iterations=*/3);
  ASSERT_NE(other.cache_fingerprint(), producer.cache_fingerprint());
  const tuner::EvalCacheSnapshot snap = tuner::load_eval_cache(path_);
  try {
    other.restore(snap);
    FAIL() << "expected fingerprint mismatch Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"), std::string::npos) << e.what();
  }
  EXPECT_EQ(other.cache_size(), 0u);  // nothing leaked in before the check
}

// Recorded fingerprints: ITHEVC1 files and GA checkpoints written by
// earlier builds load only while these hold. A change to what the
// fingerprint hashes (or how) must be deliberate, and show up here.
TEST(EvalCacheFingerprint, MatchesRecordedValues) {
  auto fingerprint = [](const tuner::EvalConfig& config) {
    std::vector<wl::Workload> suite;
    suite.push_back(wl::Workload{"loop", "", "", ith::test::make_loop_program(50)});
    return tuner::SuiteEvaluator(std::move(suite), config).cache_fingerprint();
  };
  tuner::EvalConfig adapt;
  adapt.scenario = vm::Scenario::kAdapt;
  EXPECT_EQ(fingerprint(adapt), 0x259dee3e0f79ab4bULL);
  tuner::EvalConfig opt_scenario;
  opt_scenario.scenario = vm::Scenario::kOpt;
  EXPECT_EQ(fingerprint(opt_scenario), 0x027fac4aaf6f0f85ULL);
  tuner::EvalConfig custom;
  custom.vm_config.pipeline = opt::PipelineDesc::parse("inline,fixpoint(fold,copyprop,dce):3");
  EXPECT_EQ(fingerprint(custom), 0xfa6972988c599055ULL);
  // Spelling out the standard pipeline is the unset default.
  tuner::EvalConfig standard;
  standard.vm_config.pipeline = opt::PipelineDesc::standard();
  EXPECT_EQ(fingerprint(standard), fingerprint(adapt));
}

}  // namespace
}  // namespace ith
