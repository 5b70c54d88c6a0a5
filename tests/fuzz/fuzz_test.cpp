// Fuzzing subsystem correctness: the adversarial generator only emits
// verified programs and is byte-deterministic in its seed, the four-tier
// differential oracle is deterministic and clean over a seed block, and an
// intentionally planted miscompile is caught, bisected to the carrying
// pass, and shrunk to a handful of instructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "bytecode/binary.hpp"
#include "bytecode/builder.hpp"
#include "bytecode/verifier.hpp"
#include "fuzz/bisect.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "support/error.hpp"

namespace ith::fuzz {
namespace {

TEST(Generator, ProducesVerifiedNonTrivialPrograms) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorSpec spec;
    spec.seed = seed;
    const bc::Program prog = generate_adversarial(spec);
    // generate_adversarial verifies internally; re-check the contract here
    // so a regression fails with the verifier's message, not deep inside.
    EXPECT_NO_THROW(bc::verify_program(prog)) << "seed " << seed;
    EXPECT_GE(prog.num_methods(),
              static_cast<std::size_t>(spec.min_methods) + 1)  // + entry
        << "seed " << seed;
    EXPECT_GE(prog.total_code_size(), 50u) << "seed " << seed;
  }
}

TEST(Generator, ByteIdenticalForEqualSeeds) {
  GeneratorSpec spec;
  spec.seed = 7;
  const std::vector<std::uint8_t> first = bc::to_binary(generate_adversarial(spec));
  const std::vector<std::uint8_t> second = bc::to_binary(generate_adversarial(spec));
  EXPECT_EQ(first, second);

  spec.seed = 8;
  EXPECT_NE(bc::to_binary(generate_adversarial(spec)), first)
      << "different seeds should not collide on identical programs";
}

TEST(Oracle, VerdictIsDeterministic) {
  GeneratorSpec spec;
  spec.seed = 7;
  const bc::Program prog = generate_adversarial(spec);
  OracleConfig config;
  config.seed = 7;
  const DifferentialOracle first(config);
  const DifferentialOracle second(config);
  const OracleVerdict a = first.check(prog);
  const OracleVerdict b = second.check(prog);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.summary(), b.summary());
}

// An oracle seed names one pipeline for good: `fuzz_vm --oracle-seed=N`
// repros, the corpus test's seeds and the smoke campaign's seed range all
// depend on it. These strings were recorded from the eight-boolean option
// draws the pipeline draw replaced.
TEST(Oracle, SeedMapsToRecordedPipeline) {
  const char* const kRecorded[] = {
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
      "tail_recursion,fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
      "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
      "tail_recursion,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,branch_simplify,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,compare_fusion,branch_simplify,dce,unreachable):6",
      "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
      "inline,tail_recursion,fixpoint(algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
      "inline,tail_recursion,fixpoint(fold,algebraic,branch_simplify,copyprop,dce,unreachable):6",
  };
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    OracleConfig config;
    config.seed = seed;
    EXPECT_EQ(DifferentialOracle(config).pipeline().to_string(), kRecorded[seed - 1])
        << "oracle seed " << seed;
  }
}

TEST(Oracle, CleanOverSeedBlock) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorSpec spec;
    spec.seed = seed;
    const bc::Program prog = generate_adversarial(spec);
    OracleConfig config;
    config.seed = seed;
    const DifferentialOracle oracle(config);
    const OracleVerdict verdict = oracle.check(prog);
    if (verdict.reference_failed) continue;  // too hot to fuzz, not a bug
    EXPECT_FALSE(verdict.diverged) << "seed " << seed << ": " << verdict.summary();
  }
}

TEST(Oracle, BuiltinEdgeCasesAreClean) {
  const auto cases = builtin_edge_cases();
  ASSERT_EQ(cases.size(), 3u);
  EXPECT_EQ(cases[0].first, "edge_empty_body_leaf");
  EXPECT_EQ(cases[1].first, "edge_max_stack_boundary");
  EXPECT_EQ(cases[2].first, "edge_self_recursive");
  for (const auto& [name, prog] : cases) {
    EXPECT_NO_THROW(bc::verify_program(prog)) << name;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      OracleConfig config;
      config.seed = seed;
      const OracleVerdict verdict = DifferentialOracle(config).check(prog);
      EXPECT_FALSE(verdict.reference_failed) << name << " oracle seed " << seed;
      EXPECT_FALSE(verdict.diverged)
          << name << " oracle seed " << seed << ": " << verdict.summary();
    }
  }
}

/// A program whose observable output depends on a `const; const; add`
/// triple the sound folder must skip (the sum overflows int32) — exactly
/// the residue the kFoldOverflow plant miscompiles — surrounded by enough
/// benign structure that shrinking has real work to do.
bc::Program make_planted_bug_program() {
  constexpr std::int64_t kMax32 = 2147483647;
  bc::ProgramBuilder pb("planted", 8);
  pb.method("square", 1, 1).load(0).load(0).mul().ret();
  auto& m = pb.method("main", 0, 2);
  // Benign loop: g[0] = sum of squares 0..4.
  m.const_(5).store(0).const_(0).store(1);
  m.label("head");
  m.load(0).jz("done");
  m.load(1).load(0).call("square", 1).add().store(1);
  m.load(0).const_(1).sub().store(0);
  m.jmp("head");
  m.label("done");
  m.const_(0).load(1).gstore();
  // The payload: g[3] = kMax32 + 10 (does not fit int32; the sound folder
  // leaves the triple alone, the planted bug clamps it).
  m.const_(3).const_(kMax32).const_(10).add().gstore();
  // More benign traffic after the payload.
  m.const_(5).const_(4).call("square", 1).gstore();
  m.const_(0).halt();
  pb.entry("main");
  return pb.build();
}

TEST(PlantedBug, CaughtBisectedToFoldingAndShrunk) {
  const bc::Program prog = make_planted_bug_program();
  bc::verify_program(prog);

  OracleConfig config;
  config.seed = 3;
  config.planted_bug = PlantedBug::kFoldOverflow;
  config.forced_pipeline = opt::PipelineDesc::standard();  // all passes on
  const DifferentialOracle oracle(config);

  // Caught: the oracle reports the miscompiled global.
  const OracleVerdict verdict = oracle.check(prog);
  ASSERT_TRUE(verdict.diverged) << verdict.summary();

  // Bisected: the plant rides on the fold pass, so dropping that pass —
  // and only that pass — must make the divergence disappear.
  const BisectResult bisect = bisect_passes(prog, oracle);
  EXPECT_TRUE(bisect.reproduced);
  ASSERT_EQ(bisect.guilty.size(), 1u) << bisect.to_string();
  EXPECT_EQ(bisect.guilty[0], "fold");

  // Shrunk: greedy deletion keeps only the payload.
  ShrinkStats stats;
  const bc::Program shrunk = shrink_program(
      prog, [&](const bc::Program& p) { return oracle.check(p).diverged; }, &stats);
  EXPECT_TRUE(oracle.check(shrunk).diverged);
  EXPECT_LE(shrunk.total_code_size(), 10u)
      << "shrunk repro still has " << shrunk.total_code_size() << " instructions after "
      << stats.rounds << " round(s)";
  EXPECT_LT(stats.final_instructions, stats.initial_instructions);
}

TEST(PlantedBug, InertWhenCarryingPassDisabled) {
  const bc::Program prog = make_planted_bug_program();
  OracleConfig config;
  config.seed = 3;
  config.planted_bug = PlantedBug::kFoldOverflow;
  config.forced_pipeline = opt::PipelineDesc::standard().without("fold");
  const OracleVerdict verdict = DifferentialOracle(config).check(prog);
  EXPECT_FALSE(verdict.diverged) << verdict.summary();
}

TEST(Shrink, RejectsProgramThatDoesNotReproduce) {
  const bc::Program prog = make_planted_bug_program();
  EXPECT_THROW(shrink_program(prog, [](const bc::Program&) { return false; }, nullptr),
               ith::Error);
}

TEST(Campaign, SeedWalkReportsCleanRun) {
  CampaignConfig config;
  config.seed_begin = 1;
  config.seed_end = 10;
  config.write_repros = false;
  const CampaignReport report = run_campaign(config);
  EXPECT_EQ(report.seeds_run, 10u);
  EXPECT_EQ(report.corpus_replayed, 3u);  // built-in edge cases
  EXPECT_GT(report.total_instructions_generated, 0u);
  EXPECT_TRUE(report.clean()) << report.findings.size() << " finding(s)";
}

}  // namespace
}  // namespace ith::fuzz
