// PassManager redesign coverage: pipeline description round trips,
// bit-identity of the new pipeline against the frozen legacy orchestration
// (reference_optimize) for five-parameter genomes, the pipelines that
// oracle refuses, analysis-cache reuse across compilations, the
// opt.analysis_* obs counters, and the stale-analysis detector that the
// PreservedAnalyses soundness property tests drive.
#include "opt/pipeline.hpp"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "workloads/suite.hpp"

namespace ith::opt {
namespace {

// --- PipelineDesc ---------------------------------------------------------

TEST(PipelineDesc, StandardRoundTripsThroughText) {
  const PipelineDesc p = PipelineDesc::standard();
  const PipelineDesc q = PipelineDesc::parse(p.to_string());
  EXPECT_EQ(p, q);
  EXPECT_TRUE(p.has_pass("inline"));
  EXPECT_TRUE(p.has_pass("fold"));
  EXPECT_FALSE(p.has_pass("no_such_pass"));
}

TEST(PipelineDesc, ParseAcceptsMinimalShapes) {
  const PipelineDesc p = PipelineDesc::parse("inline,fixpoint(fold):2");
  EXPECT_EQ(p.setup, std::vector<std::string>{"inline"});
  EXPECT_EQ(p.fixpoint, std::vector<std::string>{"fold"});
  EXPECT_EQ(p.max_iterations, 2);
  EXPECT_EQ(PipelineDesc::parse(p.to_string()), p);

  const PipelineDesc empty = PipelineDesc::parse("fixpoint():1");
  EXPECT_TRUE(empty.setup.empty());
  EXPECT_TRUE(empty.fixpoint.empty());
}

TEST(PipelineDesc, ParseRejectsMalformedDescriptions) {
  EXPECT_THROW(PipelineDesc::parse("inline,fold"), Error);            // no fixpoint group
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold"), Error);          // unterminated
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold)"), Error);         // missing :N
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold):0"), Error);       // zero iterations
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold):x"), Error);       // bad number
  EXPECT_THROW(PipelineDesc::parse("bogus,fixpoint(fold):1"), Error); // unknown setup pass
  EXPECT_THROW(PipelineDesc::parse("fixpoint(bogus):1"), Error);      // unknown fixpoint pass
}

TEST(PipelineDesc, WithoutDropsEveryOccurrenceOfOnePass) {
  const PipelineDesc p = PipelineDesc::parse("inline,fixpoint(fold,dce,fold):4");
  const PipelineDesc q = p.without("fold");
  EXPECT_EQ(q.to_string(), "inline,fixpoint(dce):4");
  EXPECT_EQ(q.without("inline").to_string(), "fixpoint(dce):4");
  EXPECT_EQ(p.without("copyprop"), p);
}

TEST(PipelineDesc, MakePassKnowsEveryRegisteredName) {
  for (const std::string& name : known_pass_names()) {
    const std::unique_ptr<Pass> pass = make_pass(name);
    ASSERT_NE(pass, nullptr);
    EXPECT_EQ(pass->name(), name);
  }
  EXPECT_THROW(make_pass("bogus"), Error);
}

// --- Bit-identity vs the frozen legacy orchestration ----------------------

void expect_identical(const bc::Program& prog, const heur::InlineParams& params,
                      const SiteOracle& oracle, const PipelineDesc& pipeline,
                      const std::string& label) {
  const heur::JikesHeuristic h(params);
  const InlineLimits limits{};
  PassManager pm(prog, h, oracle, pipeline, limits);
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
    SCOPED_TRACE(label + ": method " + prog.method(id).name());
    const OptimizeResult got = pm.run(id);
    const OptimizeResult want = reference_optimize(prog, id, h, oracle, pipeline, limits);
    ASSERT_EQ(got.body.method, want.body.method);
    ASSERT_EQ(got.body.meta.size(), want.body.meta.size());
    for (std::size_t pc = 0; pc < got.body.meta.size(); ++pc) {
      EXPECT_EQ(got.body.meta[pc].depth, want.body.meta[pc].depth) << "pc " << pc;
      EXPECT_EQ(got.body.meta[pc].origin_method, want.body.meta[pc].origin_method) << "pc " << pc;
      EXPECT_EQ(got.body.meta[pc].origin_pc, want.body.meta[pc].origin_pc) << "pc " << pc;
    }
    EXPECT_EQ(got.stats.inline_stats.sites_considered, want.stats.inline_stats.sites_considered);
    EXPECT_EQ(got.stats.inline_stats.sites_inlined, want.stats.inline_stats.sites_inlined);
    EXPECT_EQ(got.stats.inline_stats.sites_partially_inlined,
              want.stats.inline_stats.sites_partially_inlined);
    EXPECT_EQ(got.stats.inline_stats.size_after_words, want.stats.inline_stats.size_after_words);
    EXPECT_EQ(got.stats.folds, want.stats.folds);
    EXPECT_EQ(got.stats.copyprops, want.stats.copyprops);
    EXPECT_EQ(got.stats.dead_stores, want.stats.dead_stores);
    EXPECT_EQ(got.stats.branch_simplifications, want.stats.branch_simplifications);
    EXPECT_EQ(got.stats.algebraic_simplifications, want.stats.algebraic_simplifications);
    EXPECT_EQ(got.stats.compare_fusions, want.stats.compare_fusions);
    EXPECT_EQ(got.stats.tail_calls_eliminated, want.stats.tail_calls_eliminated);
    EXPECT_EQ(got.stats.unreachable_removed, want.stats.unreachable_removed);
    EXPECT_EQ(got.stats.instructions_compacted, want.stats.instructions_compacted);
    EXPECT_EQ(got.stats.iterations, want.stats.iterations);
  }
}

std::vector<heur::InlineParams> five_param_variants() {
  std::vector<heur::InlineParams> out;
  out.push_back(heur::default_params());

  heur::InlineParams aggressive;
  aggressive.callee_max_size = 500;
  aggressive.always_inline_size = 200;
  aggressive.max_inline_depth = 12;
  aggressive.caller_max_size = 100000;
  aggressive.hot_callee_max_size = 500;
  out.push_back(aggressive);

  heur::InlineParams stingy;
  stingy.callee_max_size = 1;
  stingy.always_inline_size = 0;
  stingy.max_inline_depth = 0;
  stingy.caller_max_size = 1;
  stingy.hot_callee_max_size = 1;
  out.push_back(stingy);
  return out;
}

std::vector<PipelineDesc> pipeline_variants() {
  const PipelineDesc all = PipelineDesc::standard();
  const PipelineDesc no_inline = all.without("inline");
  const PipelineDesc scalar_mix = all.without("fold").without("algebraic").without("tail_recursion");
  PipelineDesc one_iter = all.without("copyprop").without("dce").without("unreachable");
  one_iter.max_iterations = 1;
  return {all, no_inline, scalar_mix, one_iter};
}

std::vector<std::pair<std::string, SiteOracle>> oracle_variants() {
  const SiteOracle mixed = [](bc::MethodId m, std::int32_t pc) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * 0x9e3779b97f4a7c15ULL) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pc)) * 0xbf58476d1ce4e5b9ULL);
    return SiteProfile{(h >> 17 & 1) != 0, h % 701};
  };
  return {{"cold", cold_site}, {"mixed", mixed}};
}

TEST(PassManagerEquivalence, BitIdenticalToLegacyOverWorkloads) {
  const std::vector<heur::InlineParams> params = five_param_variants();
  const std::vector<PipelineDesc> pipelines = pipeline_variants();
  const auto oracles = oracle_variants();
  std::size_t i = 0;
  for (const wl::Workload& w : wl::make_suite("all")) {
    for (std::size_t pi = 0; pi < params.size(); ++pi, ++i) {
      const auto& [oracle_name, oracle] = oracles[i % oracles.size()];
      expect_identical(w.program, params[pi], oracle, pipelines[i % pipelines.size()],
                       w.name + "/params" + std::to_string(pi) + "/" + oracle_name);
    }
  }
}

#ifdef ITH_FUZZ_CORPUS_DIR
// Fuzz-corpus acceptance bar for the redesign: every checked-in repro —
// programs shrunk specifically to stress the optimizer — compiles
// bit-identically through the new pipeline for randomized five-parameter
// genomes. (The live fuzz campaign re-proves this continuously through the
// pipeline-diff tier; this pins the corpus in the unit suite.)
TEST(PassManagerEquivalence, BitIdenticalToLegacyOverFuzzCorpus) {
  const auto entries = fuzz::load_corpus(ITH_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "corpus directory missing or empty";
  const std::vector<PipelineDesc> pipelines = pipeline_variants();
  const auto oracles = oracle_variants();
  std::mt19937_64 rng(20260807);
  const auto& ranges = heur::param_ranges();
  std::size_t i = 0;
  for (const auto& [name, prog] : entries) {
    heur::InlineParams::Array a{};
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::uniform_int_distribution<int> dist(ranges[k].lo, ranges[k].hi);
      a[k] = dist(rng);
    }
    a[5] = 0;  // five-param genome: partial inlining off
    const auto& [oracle_name, oracle] = oracles[i % oracles.size()];
    expect_identical(prog, heur::InlineParams::from_array(a), oracle,
                     pipelines[i % pipelines.size()],
                     name + "/" + oracle_name);
    ++i;
  }
}
#endif

// The frozen orchestration runs its passes in one hard-wired order, so it
// must refuse a pipeline it cannot mirror rather than let the mismatch be
// reported as a PassManager bug.
TEST(PassManagerEquivalence, ReferenceRejectsPipelinesItCannotMirror) {
  const bc::Program p = ith::test::make_add_program();
  const heur::JikesHeuristic h;
  const InlineLimits limits{};
  auto reference = [&](const std::string& text) {
    return reference_optimize(p, p.entry(), h, cold_site, PipelineDesc::parse(text), limits);
  };
  EXPECT_THROW(reference("inline,fixpoint(copyprop,fold):6"), Error);       // reordered
  EXPECT_THROW(reference("tail_recursion,inline,fixpoint(fold):6"), Error);  // reordered setup
  EXPECT_THROW(reference("inline,fixpoint(fold,fold):6"), Error);            // duplicated
  EXPECT_THROW(reference("fold,fixpoint(copyprop):6"), Error);               // wrong group
  EXPECT_NO_THROW(reference("inline,fixpoint(fold,unreachable):6"));         // dce split off
  EXPECT_NO_THROW(reference("fixpoint():1"));

  PipelineDesc zero = PipelineDesc::standard();
  zero.max_iterations = 0;
  EXPECT_THROW(reference_optimize(p, p.entry(), h, cold_site, zero, limits), Error);
}

// bisection drops dce and unreachable one at a time, so the oracle must
// mirror each of them without the other.
TEST(PassManagerEquivalence, BitIdenticalWithDeadCodePassesSplit) {
  const PipelineDesc all = PipelineDesc::standard();
  for (const char* name : {"compress", "jess"}) {
    const bc::Program prog = wl::make_workload(name).program;
    expect_identical(prog, heur::default_params(), cold_site, all.without("dce"),
                     std::string(name) + "/no-dce");
    expect_identical(prog, heur::default_params(), cold_site, all.without("unreachable"),
                     std::string(name) + "/no-unreachable");
  }
}

TEST(PassManager, RejectsZeroIterations) {
  const bc::Program p = ith::test::make_add_program();
  heur::NeverInlineHeuristic h;
  PipelineDesc bad = PipelineDesc::standard();
  bad.max_iterations = 0;
  EXPECT_THROW(PassManager(p, h, cold_site, bad), Error);
}

// --- Analysis cache reuse across compilations -----------------------------

TEST(PassManagerCache, SecondCompilationReusesProgramScopeAnalyses) {
  const bc::Program& prog = wl::make_workload("compress").program;
  const heur::JikesHeuristic h;
  PassManager pm(prog, h);

  pm.run(prog.entry());
  const AnalysisStats s1 = pm.analyses().stats();
  EXPECT_GT(s1.misses, 0u) << "first compilation must compute something";

  pm.run(prog.entry());
  const AnalysisStats s2 = pm.analyses().stats();
  EXPECT_GT(s2.hits, s1.hits) << "recompilation must hit the cache";

  // The call graph is program-scope: recompiling the same root re-asks for
  // its callees but must never recompute them.
  const auto cg = static_cast<unsigned>(AnalysisId::kCallGraph);
  EXPECT_GT(s2.hits_by_kind[cg], s1.hits_by_kind[cg]);
  EXPECT_EQ(s2.misses_by_kind[cg], s1.misses_by_kind[cg]);
}

TEST(PassManagerCache, AnalysisCountersReachTheObsLayer) {
  obs::MemorySink sink;
  obs::Context ctx(&sink, obs::kAllCategories);
  const bc::Program& prog = wl::make_workload("compress").program;
  const heur::JikesHeuristic h;
  PassManager pm(prog, h, cold_site, PipelineDesc::standard(), InlineLimits{}, &ctx);
  pm.run(prog.entry());
  pm.run(prog.entry());
  ctx.flush();

  std::int64_t hits = -1, misses = -1;
  for (const obs::Event& e : sink.events()) {
    if (e.phase != obs::Phase::kCounter) continue;
    for (const obs::Arg& arg : e.args) {
      if (arg.key == "opt.analysis_hits") hits = std::get<std::int64_t>(arg.value);
      if (arg.key == "opt.analysis_misses") misses = std::get<std::int64_t>(arg.value);
    }
  }
  EXPECT_GT(hits, 0) << "opt.analysis_hits counter missing or zero";
  EXPECT_GT(misses, 0) << "opt.analysis_misses counter missing or zero";
}

TEST(PassManagerStats, EmitsOneRowPerPipelinePass) {
  const bc::Program p = ith::test::make_loop_program(10);
  const heur::JikesHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.entry());

  const PipelineDesc& desc = pm.pipeline();
  ASSERT_EQ(r.pass_stats.size(), desc.setup.size() + desc.fixpoint.size());
  for (std::size_t i = 0; i < desc.setup.size(); ++i) {
    EXPECT_EQ(r.pass_stats[i].pass, desc.setup[i]);
  }
  for (std::size_t i = 0; i < desc.fixpoint.size(); ++i) {
    EXPECT_EQ(r.pass_stats[desc.setup.size() + i].pass, desc.fixpoint[i]);
  }
  // The inline pass ran exactly once and saw the original body size.
  EXPECT_EQ(r.pass_stats[0].pass, std::string("inline"));
  EXPECT_EQ(r.pass_stats[0].runs, 1u);
  EXPECT_GT(r.pass_stats[0].inst_before, 0u);
  EXPECT_NE(format_pass_stat(r.pass_stats[0]).find("[pass inline]"), std::string::npos);
}

// --- PreservedAnalyses soundness ------------------------------------------

// Property: a pass that rewrites the body but *under-reports* what it
// invalidated leaves a stale cached analysis behind, and verify mode must
// catch exactly that. Honest invalidation of the same rewrite passes.
TEST(AnalysisInvalidation, UnderReportingTripsTheStaleDetector) {
  const bc::Program p = ith::test::make_loop_program(10);
  const bc::MethodId id = p.entry();

  int mutations_checked = 0;
  AnalysisManager manager(p);
  manager.set_verify(true);
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(id), id);
  const std::vector<bc::Instruction>& code = am.method.code();
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (code[pc].op != bc::Op::kLoad) continue;
    manager.begin_body();
    manager.liveness(am);  // miss: computed and cached

    AnnotatedMethod mutated = am;
    mutated.method.mutable_code()[pc].op = bc::Op::kConst;  // load count changes
    // The "pass" claims it preserved everything — the next hit recomputes
    // under verify mode, sees a different load count, and throws.
    manager.invalidate(PreservedAnalyses::all());
    EXPECT_THROW(manager.liveness(mutated), Error) << "pc " << pc;

    // The honest report (liveness abandoned) drops the entry instead.
    manager.begin_body();
    manager.liveness(am);
    manager.invalidate(PreservedAnalyses::all().abandon(AnalysisId::kLiveness));
    EXPECT_NO_THROW(manager.liveness(mutated)) << "pc " << pc;
    ++mutations_checked;
  }
  ASSERT_GT(mutations_checked, 0) << "test program lost its loads";
}

TEST(AnalysisInvalidation, BranchRetargetingIsAlsoDetected) {
  const bc::Program p = ith::test::make_loop_program(10);
  const bc::MethodId id = p.entry();
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(id), id);

  std::size_t branch_pc = am.method.code().size();
  for (std::size_t pc = 0; pc < am.method.code().size(); ++pc) {
    const bc::Op op = am.method.code()[pc].op;
    if (op == bc::Op::kJz || op == bc::Op::kJmp) {
      branch_pc = pc;
      break;
    }
  }
  ASSERT_LT(branch_pc, am.method.code().size()) << "test program lost its branches";

  AnalysisManager manager(p);
  manager.set_verify(true);
  manager.begin_body();
  manager.branch_targets(am);

  AnnotatedMethod mutated = am;
  mutated.method.mutable_code()[branch_pc].a += 1;  // branch target moves
  manager.invalidate(PreservedAnalyses::all());
  EXPECT_THROW(manager.branch_targets(mutated), Error);

  manager.invalidate(PreservedAnalyses::none());
  EXPECT_NO_THROW(manager.branch_targets(mutated));
}

TEST(AnalysisInvalidation, BeginBodyDropsWithoutCountingInvalidations) {
  const bc::Program p = ith::test::make_loop_program(10);
  AnalysisManager manager(p);
  const AnnotatedMethod am = AnnotatedMethod::from_method(p.method(p.entry()), p.entry());
  manager.begin_body();
  manager.liveness(am);
  manager.begin_body();
  EXPECT_EQ(manager.stats().invalidations, 0u);
  manager.liveness(am);
  EXPECT_EQ(manager.stats().misses_by_kind[static_cast<unsigned>(AnalysisId::kLiveness)], 2u)
      << "begin_body must drop body-scope entries";
}

}  // namespace
}  // namespace ith::opt
